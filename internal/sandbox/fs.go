// Package sandbox implements SPLAY's isolation libraries: the restricted
// virtual filesystem (the paper's sb_fs) and the restricted socket layer
// (sb_socket). Applications get the standard interfaces; the sandbox
// transparently confines them — file data lives in a private store with
// disk and descriptor quotas, sockets are counted, bandwidth-capped and
// blacklist-filtered. Restrictions are set by the local administrator and
// may only be tightened (never weakened) by the controller at deployment
// time.
package sandbox

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// FS errors.
var (
	// ErrQuota is returned when a write would exceed the disk quota.
	ErrQuota = errors.New("sandbox: disk quota exceeded")
	// ErrTooManyFiles is returned when the descriptor limit is reached.
	ErrTooManyFiles = errors.New("sandbox: too many open files")
	// ErrNotExist is returned for missing files.
	ErrNotExist = errors.New("sandbox: file does not exist")
	// ErrClosedFile is returned for operations on closed files.
	ErrClosedFile = errors.New("sandbox: file already closed")
)

// FSLimits restricts a virtual filesystem.
type FSLimits struct {
	MaxBytes     int64 // total stored bytes (0 = unlimited)
	MaxOpenFiles int   // concurrently open descriptors (0 = unlimited)
}

// Tighten returns limits at least as strict as both (the controller can
// only restrict further, §3.1).
func (l FSLimits) Tighten(o FSLimits) FSLimits {
	return FSLimits{MaxBytes: tighter(l.MaxBytes, o.MaxBytes), MaxOpenFiles: tighter(l.MaxOpenFiles, o.MaxOpenFiles)}
}

// FS is a virtual filesystem confined to one private store. Path names
// are opaque keys: "/etc/passwd" and "data/chunk1" are just entries in
// the application's own namespace, exactly like the paper's
// single-directory mapping — the host filesystem is unreachable.
type FS struct {
	limits FSLimits

	mu    sync.Mutex
	files map[string]*fileData
	used  int64
	open  int
}

type fileData struct {
	data []byte
}

// NewFS returns an empty filesystem with the given limits.
func NewFS(limits FSLimits) *FS {
	return &FS{limits: limits, files: make(map[string]*fileData)}
}

// clean normalizes a path into the flat private namespace.
func clean(name string) string {
	name = strings.TrimPrefix(name, "/")
	// Path traversal is meaningless in a flat namespace, but normalize
	// anyway so "a/../b" and "b" are one file.
	parts := strings.Split(name, "/")
	var out []string
	for _, p := range parts {
		switch p {
		case "", ".":
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, p)
		}
	}
	return strings.Join(out, "/")
}

// Used returns the stored byte count.
func (fs *FS) Used() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.used
}

// List returns all file names in sorted order.
func (fs *FS) List() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]string, 0, len(fs.files))
	for name := range fs.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Remove deletes a file.
func (fs *FS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	key := clean(name)
	f, ok := fs.files[key]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	fs.used -= int64(len(f.data))
	delete(fs.files, key)
	return nil
}

// Open opens an existing file for reading and writing.
func (fs *FS) Open(name string) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[clean(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return fs.newHandle(clean(name), f)
}

// Create opens a file, truncating or creating it.
func (fs *FS) Create(name string) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	key := clean(name)
	if f, ok := fs.files[key]; ok {
		fs.used -= int64(len(f.data))
		f.data = nil
	} else {
		fs.files[key] = &fileData{}
	}
	return fs.newHandle(key, fs.files[key])
}

func (fs *FS) newHandle(name string, f *fileData) (*File, error) {
	if fs.limits.MaxOpenFiles > 0 && fs.open >= fs.limits.MaxOpenFiles {
		return nil, ErrTooManyFiles
	}
	fs.open++
	return &File{fs: fs, name: name, f: f}, nil
}

// File is an open handle with a seek position.
type File struct {
	fs     *FS
	name   string
	f      *fileData
	pos    int64
	closed bool
}

// Name returns the file's name within the sandbox.
func (h *File) Name() string { return h.name }

// Read implements io.Reader.
func (h *File) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, ErrClosedFile
	}
	if h.pos >= int64(len(h.f.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[h.pos:])
	h.pos += int64(n)
	return n, nil
}

// Write implements io.Writer, enforcing the disk quota.
func (h *File) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, ErrClosedFile
	}
	end := h.pos + int64(len(p))
	grow := end - int64(len(h.f.data))
	if grow > 0 && h.fs.limits.MaxBytes > 0 && h.fs.used+grow > h.fs.limits.MaxBytes {
		return 0, ErrQuota
	}
	if grow > 0 {
		h.f.data = append(h.f.data, make([]byte, grow)...)
		h.fs.used += grow
	}
	copy(h.f.data[h.pos:end], p)
	h.pos = end
	return len(p), nil
}

// Seek implements io.Seeker.
func (h *File) Seek(offset int64, whence int) (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, ErrClosedFile
	}
	var base int64
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		base = h.pos
	case io.SeekEnd:
		base = int64(len(h.f.data))
	default:
		return 0, fmt.Errorf("sandbox: bad whence %d", whence)
	}
	if base+offset < 0 {
		return 0, fmt.Errorf("sandbox: negative seek")
	}
	h.pos = base + offset
	return h.pos, nil
}

// Close releases the descriptor.
func (h *File) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return ErrClosedFile
	}
	h.closed = true
	h.fs.open--
	return nil
}
