package leakcheck

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// fakeTB records what Check reports instead of failing the real test.
type fakeTB struct {
	testing.TB
	failed bool
	msg    string
}

func (f *fakeTB) Helper() {}

func (f *fakeTB) Errorf(format string, args ...any) {
	f.failed = true
	f.msg = fmt.Sprintf(format, args...)
}

// parkUntil blocks until release closes; its name marks the leaked
// goroutine in the stack dump.
func parkUntil(release chan struct{}, exited chan struct{}) {
	defer close(exited)
	<-release
}

// TestLeakedGoroutineFailsWithStacks: a goroutine still running after
// the grace window fails the check, and the report carries its stack.
func TestLeakedGoroutineFailsWithStacks(t *testing.T) {
	release, exited := make(chan struct{}), make(chan struct{})
	defer func() {
		close(release)
		<-exited
	}()
	f := &fakeTB{TB: t}
	done := Check(f)
	go parkUntil(release, exited)
	done()
	if !f.failed {
		t.Fatal("a goroutine alive past the grace window passed the check")
	}
	if !strings.Contains(f.msg, "leakcheck.parkUntil") {
		t.Fatalf("report does not dump the leaked goroutine's stack:\n%s", f.msg)
	}
}

// TestStragglerWithinGracePasses: a goroutine that is still unwinding
// when the check starts but exits within the grace window is no leak.
func TestStragglerWithinGracePasses(t *testing.T) {
	f := &fakeTB{TB: t}
	done := Check(f)
	started, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		close(started)
		time.Sleep(100 * time.Millisecond)
	}()
	<-started
	done()
	if f.failed {
		t.Fatalf("a goroutine that exits within the grace window failed the check:\n%s", f.msg)
	}
	<-exited
}

// TestNoGoroutinesLeftPasses: a test that starts nothing passes at once.
func TestNoGoroutinesLeftPasses(t *testing.T) {
	f := &fakeTB{TB: t}
	Check(f)()
	if f.failed {
		t.Fatalf("a test with no goroutines left failed the check:\n%s", f.msg)
	}
}
