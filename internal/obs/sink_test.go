package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func TestJSONLSinkWellFormed(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	SetSinks(sink)
	ResetCounters()
	Enable()
	t.Cleanup(func() {
		Disable()
		SetSinks()
		ResetCounters()
	})

	ctx, root := Start(context.Background(), "root")
	_, child := Start(ctx, "child")
	child.SetAttr("n", 3)
	child.End()
	root.End()
	Emit(Event{Kind: KindProgress, Name: "root", Run: "root-run", Done: 1, Total: 1})
	EmitCounterSnapshot()
	if err := sink.Err(); err != nil {
		t.Fatalf("sink error: %v", err)
	}

	var events []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %q is not valid JSON: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if len(events) != 4 {
		t.Fatalf("decoded %d events, want 4", len(events))
	}
	if events[0].Name != "child" || events[0].Parent == 0 {
		t.Errorf("first line should be the child span with a parent: %+v", events[0])
	}
	if events[3].Kind != KindCounters {
		t.Errorf("last line should be the counter snapshot: %+v", events[3])
	}
}

func TestJSONLSinkRetainsFirstError(t *testing.T) {
	sink := NewJSONLSink(failingWriter{})
	sink.Emit(Event{Kind: KindSpan, Name: "x"})
	if sink.Err() == nil {
		t.Fatal("want retained write error")
	}
	// Later emits are no-ops, not panics.
	sink.Emit(Event{Kind: KindSpan, Name: "y"})
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) {
	return 0, errWrite
}

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "synthetic write failure" }

func TestWriteTreeNesting(t *testing.T) {
	events := []Event{
		{Kind: KindSpan, Name: "leaf", ID: 3, Parent: 2, DurUS: 10},
		{Kind: KindSpan, Name: "mid", ID: 2, Parent: 1, DurUS: 20},
		{Kind: KindSpan, Name: "top", ID: 1, DurUS: 30},
		{Kind: KindSpan, Name: "orphan", ID: 9, Parent: 100, DurUS: 1},
		{Kind: KindProgress, Name: "ignored"},
	}
	var buf bytes.Buffer
	if err := WriteTree(&buf, events); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // header + 4 spans
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	idx := func(name string) int {
		for i, l := range lines {
			if strings.Contains(l, name) {
				return i
			}
		}
		t.Fatalf("missing %q in:\n%s", name, out)
		return -1
	}
	top, mid, leaf := idx("top"), idx("mid"), idx("leaf")
	if !(top < mid && mid < leaf) {
		t.Errorf("tree order wrong:\n%s", out)
	}
	indent := func(l string) int { return len(l) - len(strings.TrimLeft(l, " ")) }
	if !(indent(lines[top]) < indent(lines[mid]) && indent(lines[mid]) < indent(lines[leaf])) {
		t.Errorf("indentation does not nest:\n%s", out)
	}
	idx("orphan") // orphan spans still render (as roots)
}

func TestWriteTreeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTree(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no spans") {
		t.Errorf("empty tree output = %q", buf.String())
	}
}

func TestWriteCounterTable(t *testing.T) {
	var buf bytes.Buffer
	err := WriteCounterTable(&buf, map[string]int64{"b.two": 2, "a.one": 1, "zero": 0})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "zero") {
		t.Errorf("zero-valued counter rendered:\n%s", out)
	}
	if !strings.Contains(out, "a.one") || !strings.Contains(out, "b.two") {
		t.Errorf("missing counters:\n%s", out)
	}
	if strings.Index(out, "a.one") > strings.Index(out, "b.two") {
		t.Errorf("counters not sorted:\n%s", out)
	}
}

func TestRecorderHelpers(t *testing.T) {
	rec := &Recorder{}
	rec.Emit(Event{Kind: KindSpan, Name: "a", ID: 1})
	rec.Emit(Event{Kind: KindProgress, Name: "p"})
	rec.Emit(Event{Kind: KindSpan, Name: "a", ID: 2})
	if got := len(rec.Events()); got != 3 {
		t.Fatalf("Events len = %d", got)
	}
	if got := len(rec.Spans()); got != 2 {
		t.Fatalf("Spans len = %d", got)
	}
	if got := len(rec.SpansNamed("a")); got != 2 {
		t.Fatalf("SpansNamed len = %d", got)
	}
	rec.Reset()
	if got := len(rec.Events()); got != 0 {
		t.Fatalf("Reset left %d events", got)
	}
}
