package filewatch

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// watched is a File over a one-line text file whose "bad" content its
// load function rejects, with every Watch report recorded.
type watched struct {
	*File
	path string

	mu      sync.Mutex
	content string
	reports []error
}

func newWatched(t *testing.T) *watched {
	t.Helper()
	w := &watched{path: filepath.Join(t.TempDir(), "f")}
	w.File = New(w.path, func(raw []byte) error {
		if string(raw) == "bad" {
			return errors.New("bad content")
		}
		w.mu.Lock()
		w.content = string(raw)
		w.mu.Unlock()
		return nil
	})
	w.write(t, "v1", time.Now())
	if err := w.Load(); err != nil {
		t.Fatal(err)
	}
	return w
}

// write replaces the file with content at mtime in one rename, so the
// watcher never sees a half-written file, and a coarse filesystem clock
// cannot hide an edit.
func (w *watched) write(t *testing.T, content string, mtime time.Time) {
	t.Helper()
	tmp := w.path + ".tmp"
	if err := os.WriteFile(tmp, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(tmp, mtime, mtime); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, w.path); err != nil {
		t.Fatal(err)
	}
}

func (w *watched) report(err error) {
	w.mu.Lock()
	w.reports = append(w.reports, err)
	w.mu.Unlock()
}

// await waits until the loop has reported n outcomes and returns them.
func (w *watched) await(t *testing.T, n int) []error {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		w.mu.Lock()
		got := append([]error(nil), w.reports...)
		w.mu.Unlock()
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("watch reported %d outcomes, want %d", len(got), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWatchReportsEachEditOnce: a bad edit is reported once however many
// polls see it, the edit after it loads, and a missing file is retried
// silently until it is back.
func TestWatchReportsEachEditOnce(t *testing.T) {
	w := newWatched(t)
	w.Watch(time.Millisecond, w.report)
	defer func() { _ = w.Close() }()
	base := time.Now()

	w.write(t, "bad", base.Add(time.Second))
	w.await(t, 1)
	time.Sleep(50 * time.Millisecond) // some 50 polls of the same bad file
	w.write(t, "v2", base.Add(2*time.Second))
	reports := w.await(t, 2)
	if len(reports) != 2 || reports[0] == nil || reports[1] != nil {
		t.Fatalf("reports = %v, want [bad content, <nil>]", reports)
	}

	if err := os.Remove(w.path); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // polls that fail to stat
	w.write(t, "v3", base.Add(3*time.Second))
	if reports := w.await(t, 3); len(reports) != 3 || reports[2] != nil {
		t.Fatalf("reports = %v, want a third, successful load", reports)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.content != "v3" {
		t.Fatalf("content = %q, want v3", w.content)
	}
}
