package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/testbed"
)

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error, empty for valid
	}{
		{"inline", Spec{Nodes: []string{"a:1"}}, ""},
		{"file", Spec{NodesFile: "nodes.txt"}, ""},
		{"register", Spec{Register: "127.0.0.1:0"}, ""},
		{"none", Spec{}, "no membership source"},
		{"two", Spec{Nodes: []string{"a:1"}, NodesFile: "nodes.txt"}, "mutually exclusive"},
		{"three", Spec{Nodes: []string{"a:1"}, NodesFile: "n", Register: "r:1"}, "mutually exclusive"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
	if !(Spec{}).Empty() {
		t.Error("zero Spec not Empty")
	}
}

func TestParseNodes(t *testing.T) {
	addrs, err := ParseNodes("a:1\nb:2, c:3\t d:4\n# comment\ne:5 # trailing\n\na:1\n")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a:1", "b:2", "c:3", "d:4", "e:5"}
	if !equalStrings(addrs, want) {
		t.Fatalf("ParseNodes = %v, want %v", addrs, want)
	}
	if _, err := ParseNodes("not-an-address"); err == nil {
		t.Fatal("garbage token accepted")
	}
	if addrs, err := ParseNodes("# only a comment\n"); err != nil || len(addrs) != 0 {
		t.Fatalf("comment-only body: addrs=%v err=%v", addrs, err)
	}
}

func TestStaticSource(t *testing.T) {
	s := Static("a:1", "b:2", "a:1")
	addrs, gen := s.Snapshot()
	if !equalStrings(addrs, []string{"a:1", "b:2"}) || gen != 1 {
		t.Fatalf("Snapshot = %v gen %d", addrs, gen)
	}
	if s.Changed(gen) != nil {
		t.Fatal("static source claims it can change")
	}
}

func TestMembersGenerationAndChanged(t *testing.T) {
	m := newMembers([]string{"a:1"})
	_, gen := m.Snapshot()
	ch := m.Changed(gen)
	select {
	case <-ch:
		t.Fatal("change channel fired without a change")
	default:
	}
	m.set([]string{"a:1"}) // no-op: same membership
	if _, g2 := m.Snapshot(); g2 != gen {
		t.Fatalf("no-op set bumped generation %d -> %d", gen, g2)
	}
	m.set([]string{"a:1", "b:2"})
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("change channel did not fire")
	}
	addrs, g3 := m.Snapshot()
	if g3 != gen+1 || !equalStrings(addrs, []string{"a:1", "b:2"}) {
		t.Fatalf("after set: %v gen %d", addrs, g3)
	}
	// A stale generation gets an already-closed channel back.
	select {
	case <-m.Changed(gen):
	default:
		t.Fatal("stale generation did not get a closed channel")
	}
}

func TestFileSourceReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nodes.txt")
	if err := os.WriteFile(path, []byte("a:1\nb:2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := NewFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	addrs, gen := fs.Snapshot()
	if !equalStrings(addrs, []string{"a:1", "b:2"}) {
		t.Fatalf("initial load: %v", addrs)
	}
	if err := os.WriteFile(path, []byte("a:1\nb:2\nc:3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Reload(); err != nil {
		t.Fatal(err)
	}
	addrs, gen2 := fs.Snapshot()
	if gen2 <= gen || !equalStrings(addrs, []string{"a:1", "b:2", "c:3"}) {
		t.Fatalf("after reload: %v gen %d", addrs, gen2)
	}
	// A broken file keeps the previous membership in force.
	if err := os.WriteFile(path, []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Reload(); err == nil {
		t.Fatal("garbage file reloaded without error")
	}
	addrs, gen3 := fs.Snapshot()
	if gen3 != gen2 || !equalStrings(addrs, []string{"a:1", "b:2", "c:3"}) {
		t.Fatalf("failed reload changed membership: %v gen %d", addrs, gen3)
	}
	if _, err := NewFileSource(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("missing nodes file accepted")
	}
}

func TestWatchSIGHUPReloads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nodes.txt")
	if err := os.WriteFile(path, []byte("a:1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := NewFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	stop := WatchSIGHUP(fs, t.Logf)
	defer stop()
	_, gen := fs.Snapshot()
	ch := fs.Changed(gen)
	if err := os.WriteFile(path, []byte("a:1\nb:2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("SIGHUP did not reload membership")
	}
	addrs, _ := fs.Snapshot()
	if !equalStrings(addrs, []string{"a:1", "b:2"}) {
		t.Fatalf("after SIGHUP: %v", addrs)
	}
}

// waitForMembers polls src until its membership equals want.
func waitForMembers(t *testing.T, src Source, want []string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		addrs, gen := src.Snapshot()
		if equalStrings(addrs, want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("membership %v never became %v", addrs, want)
		}
		select {
		case <-src.Changed(gen):
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func TestRegistryJoinAndLeave(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(ln, t.Logf)
	defer reg.Close()

	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	done1 := make(chan error, 1)
	go func() {
		done1 <- RegisterLoop(ctx1, reg.Addr(), "127.0.0.1:7001", testbed.Hello, t.Logf)
	}()
	waitForMembers(t, reg, []string{"127.0.0.1:7001"})

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go func() { _ = RegisterLoop(ctx2, reg.Addr(), "127.0.0.1:7002", testbed.Hello, t.Logf) }()
	waitForMembers(t, reg, []string{"127.0.0.1:7001", "127.0.0.1:7002"})

	// A node leaves when its connection drops.
	cancel1()
	if err := <-done1; !errors.Is(err, context.Canceled) {
		t.Fatalf("RegisterLoop returned %v, want context.Canceled", err)
	}
	waitForMembers(t, reg, []string{"127.0.0.1:7002"})
}

func TestRegistryRejectsVersionMismatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(ln, t.Logf)
	defer reg.Close()

	badHello := func() testbed.WireHello {
		h := testbed.Hello()
		h.Physics++ // a node built from different physics must never join
		return h
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = RegisterLoop(ctx, reg.Addr(), "127.0.0.1:7003", badHello, t.Logf)
	var rej *rejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("RegisterLoop returned %v, want permanent rejection", err)
	}
	if addrs, _ := reg.Snapshot(); len(addrs) != 0 {
		t.Fatalf("rejected node appears in membership: %v", addrs)
	}
}

func TestRegisterChecks(t *testing.T) {
	ok := WireRegister{Proto: RegisterProtocolVersion, Addr: "127.0.0.1:7000", Node: testbed.Hello()}
	if err := ok.Check(); err != nil {
		t.Fatal(err)
	}
	bad := ok
	bad.Proto++
	if err := bad.Check(); !errors.Is(err, testbed.ErrVersionMismatch) {
		t.Fatalf("wrong registration protocol: %v", err)
	}
	bad = ok
	bad.Addr = ""
	if err := bad.Check(); err == nil {
		t.Fatal("empty address accepted")
	}
	bad = ok
	bad.Addr = "no-port"
	if err := bad.Check(); err == nil {
		t.Fatal("portless address accepted")
	}
	bad = ok
	bad.Node.Protocol++
	if err := bad.Check(); !errors.Is(err, testbed.ErrVersionMismatch) {
		t.Fatalf("wrong node protocol: %v", err)
	}
}

func TestSpecOpenStatic(t *testing.T) {
	src, cleanup, err := Spec{Nodes: []string{"a:1", "b:2"}}.Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	addrs, _ := src.Snapshot()
	if !equalStrings(addrs, []string{"a:1", "b:2"}) {
		t.Fatalf("Open static: %v", addrs)
	}
	if _, _, err := (Spec{}).Open(nil); err == nil {
		t.Fatal("empty spec opened")
	}
}

// TestSpecOpenNodesFileLogsMembership pins the nodes file's first
// membership line, which is logged only once the SIGHUP handler is in
// place: a script that waits for it may signal the process safely.
func TestSpecOpenNodesFileLogsMembership(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nodes")
	if err := os.WriteFile(path, []byte("a:1\nb:2\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	var lines []string
	_, cleanup, err := Spec{NodesFile: path}.Open(func(format string, a ...any) {
		lines = append(lines, fmt.Sprintf(format, a...))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	want := "nodes file " + path + ": 2 member(s), reloaded on SIGHUP"
	if len(lines) != 1 || lines[0] != want {
		t.Fatalf("Open logged %q, want [%q]", lines, want)
	}
}

func TestSpecOpenRegister(t *testing.T) {
	src, cleanup, err := Spec{Register: "127.0.0.1:0"}.Open(t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	reg, ok := src.(*Registry)
	if !ok {
		t.Fatalf("Open register returned %T", src)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = RegisterLoop(ctx, reg.Addr(), "127.0.0.1:7010", testbed.Hello, t.Logf) }()
	waitForMembers(t, src, []string{"127.0.0.1:7010"})
}
