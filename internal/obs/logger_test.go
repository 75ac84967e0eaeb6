package obs

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, LevelInfo)
	log.Infof("status %d", 1)
	log.Debugf("detail %d", 2)
	out := buf.String()
	if !strings.Contains(out, "status 1") {
		t.Errorf("info line missing: %q", out)
	}
	if strings.Contains(out, "detail") {
		t.Errorf("debug line leaked at info level: %q", out)
	}

	buf.Reset()
	log = NewLogger(&buf, LevelDebug)
	log.Debugf("detail")
	if !strings.Contains(buf.String(), "detail") {
		t.Errorf("debug line missing at debug level")
	}

	buf.Reset()
	log = NewLogger(&buf, LevelQuiet)
	log.Infof("status")
	if buf.Len() != 0 {
		t.Errorf("quiet logger wrote %q", buf.String())
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var log *Logger
	log.Infof("x")
	log.Debugf("x")
	log.Errorf("x")
	if log.Enabled(LevelInfo) {
		t.Error("nil logger reports enabled")
	}
	if w := log.Writer(LevelInfo); w != nil {
		t.Errorf("nil logger Writer = %v, want nil", w)
	}
}

func TestLoggerWriterAdapter(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, LevelInfo)
	w := log.Writer(LevelInfo)
	if w == nil {
		t.Fatal("enabled level returned nil writer")
	}
	n, err := io.WriteString(w, "library line\n")
	if err != nil || n != len("library line\n") {
		t.Fatalf("Write = (%d, %v)", n, err)
	}
	if got := buf.String(); got != "library line\n" {
		t.Errorf("writer output = %q", got)
	}
	if log.Writer(LevelDebug) != nil {
		t.Error("disabled level returned a writer; callers rely on nil to keep library logging off")
	}
}

func TestLoggerNewlineNormalization(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, LevelInfo)
	log.Infof("no newline")
	log.Infof("with newline\n")
	if got := buf.String(); got != "no newline\nwith newline\n" {
		t.Errorf("output = %q", got)
	}
}

func TestLoggerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, LevelInfo)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				log.Infof("line")
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	for _, l := range lines {
		if l != "line" {
			t.Fatalf("interleaved write: %q", l)
		}
	}
}
