// Package filewatch reloads a file when its modification time changes:
// the one poll loop behind the master key file and the tenants file.
//
// Every load stats the file before it reads it. An edit that lands
// between the two is then read with the older mtime recorded, so the
// next poll sees a newer mtime and loads it again; reading first would
// record the newer mtime over the older content and never load the edit.
package filewatch

import (
	"io/fs"
	"os"
	"sync"
	"time"
)

// File is one file loaded through a parse-and-install function.
type File struct {
	path string
	load func(raw []byte) error

	mu sync.Mutex
	// loaded is the mtime of the version last installed.
	loaded time.Time

	watchMu sync.Mutex
	stop    chan struct{}
	done    chan struct{}
}

// New returns a File for path. load parses the file's bytes and installs
// them; an error leaves whatever was installed before in force.
func New(path string, load func(raw []byte) error) *File {
	return &File{path: path, load: load}
}

// Load stats, reads and installs the file whatever its mtime.
func (f *File) Load() error {
	fi, err := os.Stat(f.path)
	if err != nil {
		return err
	}
	return f.install(fi)
}

// Reload loads the file if its mtime differs from the version last
// installed, and reports whether it did.
func (f *File) Reload() (bool, error) {
	fi, err := os.Stat(f.path)
	if err != nil {
		return false, err
	}
	if f.current(fi) {
		return false, nil
	}
	if err := f.install(fi); err != nil {
		return false, err
	}
	return true, nil
}

// current reports whether fi's mtime is the one last installed.
func (f *File) current(fi fs.FileInfo) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return fi.ModTime().Equal(f.loaded)
}

// install reads the file fi was statted from and installs it, recording
// fi's mtime on success.
func (f *File) install(fi fs.FileInfo) error {
	raw, err := os.ReadFile(f.path)
	if err != nil {
		return err
	}
	if err := f.load(raw); err != nil {
		return err
	}
	f.mu.Lock()
	f.loaded = fi.ModTime()
	f.mu.Unlock()
	return nil
}

// Watch polls the file every period and loads each new version, calling
// report with the outcome: nil after a load, the error after a rejected
// one. A rejected version is reported once, not on every poll; the next
// edit changes the mtime and is tried again. A failed stat (the file
// mid-rename, say) is retried on the next poll without a report. A
// second Watch on a watching File does nothing; Close stops the loop.
func (f *File) Watch(period time.Duration, report func(err error)) {
	if period <= 0 {
		return
	}
	f.watchMu.Lock()
	defer f.watchMu.Unlock()
	if f.stop != nil {
		return
	}
	f.stop, f.done = make(chan struct{}), make(chan struct{})
	go func(stop <-chan struct{}, done chan<- struct{}) {
		defer close(done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		var rejected time.Time // mtime of the version last rejected
		for {
			select {
			case <-tick.C:
			case <-stop:
				return
			}
			fi, err := os.Stat(f.path)
			if err != nil || f.current(fi) || fi.ModTime().Equal(rejected) {
				continue
			}
			err = f.install(fi)
			if err != nil {
				rejected = fi.ModTime()
			}
			report(err)
		}
	}(f.stop, f.done)
}

// Close stops a running Watch loop. It is safe to call more than once and
// on a File that never watched.
func (f *File) Close() error {
	f.watchMu.Lock()
	defer f.watchMu.Unlock()
	if f.stop == nil {
		return nil
	}
	close(f.stop)
	<-f.done
	f.stop, f.done = nil, nil
	return nil
}
