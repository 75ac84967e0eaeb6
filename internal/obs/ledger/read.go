package ledger

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// maxJournalLine bounds one journal line for the reader. Entries are
// small (a fault outcome or a metadata map), so 1 MiB is generous.
const maxJournalLine = 1 << 20

// List returns the run ids with a journal under dir, sorted
// lexicographically — which, for obs.NewRunID ids, is start-time order
// within each phase. A missing directory lists as empty: a ledger that
// was never written is just an empty history.
func List(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ledger: list %s: %w", dir, err)
	}
	var runs []string
	for _, de := range entries {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".jsonl") {
			continue
		}
		runs = append(runs, strings.TrimSuffix(de.Name(), ".jsonl"))
	}
	sort.Strings(runs)
	return runs, nil
}

// ReadRun loads one run's journal entries in append order. The reader
// is tolerant of a truncated final line (the signature a SIGKILL'd
// writer leaves behind): unparseable lines are skipped, never fatal, so
// rehydration always recovers the longest valid prefix.
func ReadRun(dir, run string) ([]Entry, error) {
	f, err := os.Open(journalPath(dir, run))
	if err != nil {
		return nil, fmt.Errorf("ledger: read run %s: %w", run, err)
	}
	defer func() { _ = f.Close() }()

	var out []Entry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), maxJournalLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			// Torn or corrupt line — keep whatever parses after it too;
			// entries are self-describing so a lost line costs one event.
			// Counted so rehydration loss is visible in /metrics instead
			// of silently shortening coverage curves.
			obsLedgerTornLines.Add(1)
			continue
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		// An over-long (runaway) line aborts the scan; the valid prefix
		// already collected is still the best available history.
		obsLedgerTornLines.Add(1)
		return out, nil
	}
	return out, nil
}

// attrInt extracts an integer attribute from a (possibly JSON-decoded)
// metadata map; JSON numbers arrive as float64.
func attrInt(attrs map[string]any, key string) int {
	switch v := attrs[key].(type) {
	case int:
		return v
	case int64:
		return int(v)
	case float64:
		return int(v)
	default:
		return 0
	}
}
