package sim

import (
	"testing"
	"time"
)

func TestChanUnbufferedRendezvous(t *testing.T) {
	e := NewEngine()
	ch := NewChan[int](e, 0)
	var got int
	var sentAt, recvAt Time
	e.Spawn("sender", func(p *Proc) {
		p.Sleep(5 * time.Microsecond)
		ch.Send(p, 99)
		sentAt = p.Now()
	})
	e.Spawn("receiver", func(p *Proc) {
		got = ch.Recv(p)
		recvAt = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 99 {
		t.Fatalf("got %d, want 99", got)
	}
	if sentAt != Time(5*time.Microsecond) || recvAt != Time(5*time.Microsecond) {
		t.Fatalf("rendezvous at send=%v recv=%v, want both 5µs", sentAt, recvAt)
	}
}

func TestChanBufferedDecouples(t *testing.T) {
	e := NewEngine()
	ch := NewChan[int](e, 2)
	var sendDone Time
	e.Spawn("sender", func(p *Proc) {
		ch.Send(p, 1)
		ch.Send(p, 2)
		sendDone = p.Now()
	})
	var got []int
	e.Spawn("receiver", func(p *Proc) {
		p.Sleep(time.Millisecond)
		for i := 0; i < 2; i++ {
			v := ch.Recv(p)
			got = append(got, v)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sendDone != 0 {
		t.Fatalf("buffered sends blocked until %v, want 0", sendDone)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2]", got)
	}
}

func TestChanBufferFullBlocksSender(t *testing.T) {
	e := NewEngine()
	ch := NewChan[int](e, 1)
	var thirdSentAt Time
	e.Spawn("sender", func(p *Proc) {
		ch.Send(p, 1)
		ch.Send(p, 2) // blocks: buffer full
		thirdSentAt = p.Now()
	})
	e.Spawn("receiver", func(p *Proc) {
		p.Sleep(7 * time.Microsecond)
		if v := ch.Recv(p); v != 1 {
			t.Errorf("first recv = %d, want 1", v)
		}
		if v := ch.Recv(p); v != 2 {
			t.Errorf("second recv = %d, want 2", v)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if thirdSentAt != Time(7*time.Microsecond) {
		t.Fatalf("blocked send completed at %v, want 7µs", thirdSentAt)
	}
}

func TestChanFIFOAcrossManySenders(t *testing.T) {
	e := NewEngine()
	ch := NewChan[int](e, 0)
	for i := 0; i < 8; i++ {
		i := i
		e.Spawn("sender", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Microsecond)
			ch.Send(p, i)
		})
	}
	var got []int
	e.Spawn("receiver", func(p *Proc) {
		p.Sleep(time.Millisecond)
		for i := 0; i < 8; i++ {
			v := ch.Recv(p)
			got = append(got, v)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want FIFO order", got)
		}
	}
}

func TestChanLenCap(t *testing.T) {
	e := NewEngine()
	ch := NewChan[string](e, 3)
	if ch.cap != 3 || len(ch.buf) != 0 {
		t.Fatalf("cap=%d len=%d, want 3,0", ch.cap, len(ch.buf))
	}
	e.Spawn("p", func(p *Proc) { ch.Send(p, "a") })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(ch.buf) != 1 {
		t.Fatalf("len = %d, want 1", len(ch.buf))
	}
	if NewChan[int](e, -1).cap != 0 {
		t.Fatal("a negative capacity is not clamped to unbuffered")
	}
}
