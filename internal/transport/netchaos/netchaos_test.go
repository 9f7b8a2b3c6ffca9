package netchaos

import (
	"io"
	"net"
	"testing"
	"time"
)

func TestParseScenarios(t *testing.T) {
	valid := []string{
		"reset@5",
		"reset@5:3",
		"stall@2:50ms",
		"rstall@7:1s",
		"partial",
		"refuse@2",
		"reset@12:2, partial, refuse@1",
		"stall@1:1ms,rstall@1:1ms",
	}
	for _, s := range valid {
		if _, err := Parse(s); err != nil {
			t.Errorf("Parse(%q): %v", s, err)
		}
	}
	invalid := []string{
		"",
		"  ",
		"reset",
		"reset@",
		"reset@0",
		"reset@-3",
		"reset@5:0",
		"reset@x",
		"stall@2",
		"stall@2:0s",
		"stall@2:2h",
		"stall@2:xyz",
		"refuse@",
		"explode@4",
		"partial,",
		"reset@5,,partial",
	}
	for _, s := range invalid {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted an invalid scenario", s)
		}
	}
}

// TestResetDeterministicAndBudgeted drives frames through a chaos-
// wrapped loopback pair: the injected reset must land on the same
// write for the same seed, and the process-wide budget must bound the
// number of resets.
func TestResetDeterministicAndBudgeted(t *testing.T) {
	failAt := func(seed int64) int {
		c, err := New("reset@4:1", seed)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := c.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go io.Copy(io.Discard, conn)
			}
		}()
		conn, err := c.Dial("tcp", ln.Addr().String(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		buf := make([]byte, 64)
		for i := 1; i <= 100; i++ {
			if _, err := conn.Write(buf); err != nil {
				return i
			}
		}
		t.Fatal("no reset within 100 writes despite reset@4:1")
		return 0
	}
	a, b := failAt(7), failAt(7)
	if a != b {
		t.Fatalf("same seed produced resets at writes %d and %d", a, b)
	}
	if a < 4 || a >= 8 {
		t.Fatalf("reset at write %d, want within jittered [4, 8)", a)
	}

	// Budget exhausted: a second connection from the same plan must
	// never reset.
	c, err := New("reset@4:1", 7)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := c.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, conn)
		}
	}()
	dialOnce := func() error {
		conn, err := c.Dial("tcp", ln.Addr().String(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		buf := make([]byte, 64)
		for i := 0; i < 20; i++ {
			if _, err := conn.Write(buf); err != nil {
				return err
			}
		}
		return nil
	}
	if err := dialOnce(); err == nil {
		t.Fatal("first connection survived its reset")
	}
	if err := dialOnce(); err != nil {
		t.Fatalf("second connection reset after budget exhausted: %v", err)
	}
	if got := c.Injected(); got != (Stats{Resets: 1}) {
		t.Fatalf("the plan counted %+v, want the one reset it injected", got)
	}
}

// TestScheduleIgnoresTheOtherDirection: a daemon dials and accepts from
// different goroutines, so which of the two happens first is up to the
// scheduler. A dialled connection's faults must not depend on how many
// connections the plan's listener accepted before it, nor an accepted
// one's on the dials.
func TestScheduleIgnoresTheOtherDirection(t *testing.T) {
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	go func() {
		for {
			conn, err := sink.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, conn)
		}
	}()
	resetAt := func(conn net.Conn) int {
		defer conn.Close()
		buf := make([]byte, 8)
		for i := 1; i <= 200; i++ {
			if _, err := conn.Write(buf); err != nil {
				return i
			}
		}
		t.Fatal("no reset within 200 writes despite reset@50")
		return 0
	}
	// firstOfEach reports the write that resets a fresh plan's first
	// dialled and first accepted connection. One direction goes first
	// and makes `extra` more connections before the other starts.
	firstOfEach := func(dialFirst bool, extra int) (dialled, accepted int) {
		c, err := New("reset@50:1000", 11)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := c.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		accept := func() net.Conn {
			peer, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			go io.Copy(io.Discard, peer)
			t.Cleanup(func() { peer.Close() })
			conn, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			return conn
		}
		dial := func() net.Conn {
			conn, err := c.Dial("tcp", sink.Addr().String(), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			return conn
		}
		if dialFirst {
			d := dial()
			for i := 0; i < extra; i++ {
				dial().Close()
			}
			return resetAt(d), resetAt(accept())
		}
		a := accept()
		for i := 0; i < extra; i++ {
			accept().Close()
		}
		return resetAt(dial()), resetAt(a)
	}
	d0, a0 := firstOfEach(true, 0)
	d1, a1 := firstOfEach(false, 3)
	d2, a2 := firstOfEach(true, 4)
	if d0 != d1 || d0 != d2 {
		t.Errorf("first dialled connection reset at writes %d, %d and %d, depending on the accepts around it", d0, d1, d2)
	}
	if a0 != a1 || a0 != a2 {
		t.Errorf("first accepted connection reset at writes %d, %d and %d, depending on the dials around it", a0, a1, a2)
	}
}

// TestRefuseDropsEarlyConnections checks that refused connections never
// reach the accept caller and that later dials get through.
func TestRefuseDropsEarlyConnections(t *testing.T) {
	c, err := New("refuse@2", 1)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := c.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 4)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- conn
		}
	}()
	for i := 0; i < 3; i++ {
		conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		defer conn.Close()
	}
	select {
	case conn := <-accepted:
		conn.Close()
	case <-time.After(2 * time.Second):
		t.Fatal("third connection never accepted")
	}
	select {
	case <-accepted:
		t.Fatal("refused connection reached the accept caller")
	case <-time.After(100 * time.Millisecond):
	}
}

// FuzzParseScenario hardens the grammar: arbitrary strings must parse
// or fail cleanly, never panic.
func FuzzParseScenario(f *testing.F) {
	f.Add("reset@5:2,partial")
	f.Add("stall@2:50ms,rstall@3:10ms,refuse@1")
	f.Add("@@@,,,")
	f.Fuzz(func(t *testing.T, s string) {
		rules, err := Parse(s)
		if err == nil && len(rules) == 0 {
			t.Fatal("accepted scenario with no rules")
		}
	})
}
