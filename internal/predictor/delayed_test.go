package predictor

import "testing"

func TestDelayedZeroEqualsInner(t *testing.T) {
	a := NewLastValue(8)
	d := NewDelayed(NewLastValue(8), 0)
	for i := uint32(0); i < 100; i++ {
		key := uint64(i % 7)
		av, aok := a.Predict(key)
		dv, dok := d.Predict(key)
		if av != dv || aok != dok {
			t.Fatalf("step %d: delayed(0) diverged from inner", i)
		}
		a.Update(key, i)
		d.Update(key, i)
	}
}

func TestDelayedDefersVisibility(t *testing.T) {
	d := NewDelayed(NewLastValue(8), 3)
	d.Update(1, 42)
	if _, ok := d.Predict(1); ok {
		t.Fatal("update visible before delay drained")
	}
	// Three more updates push the first through the queue.
	d.Update(2, 1)
	d.Update(2, 1)
	d.Update(2, 1)
	if v, ok := d.Predict(1); !ok || v != 42 {
		t.Fatalf("drained update not visible: %d,%v", v, ok)
	}
}

func TestDelayedHurtsTightRecurrences(t *testing.T) {
	// The point of the ablation: a stride predictor with delayed update
	// mispredicts tight loop recurrences it would otherwise capture,
	// because the value it sees is several iterations stale.
	score := func(delay int) int {
		var p Predictor = NewStride(8)
		if delay > 0 {
			p = NewDelayed(p, delay)
		}
		correct := 0
		for i := uint32(0); i < 500; i++ {
			if v, ok := p.Predict(1); ok && v == i {
				correct++
			}
			p.Update(1, i)
		}
		return correct
	}
	immediate, delayed := score(0), score(8)
	if delayed >= immediate {
		t.Errorf("delayed update (%d) should predict worse than immediate (%d)", delayed, immediate)
	}
}

func TestDelayedFlushAndReset(t *testing.T) {
	d := NewDelayed(NewLastValue(8), 4)
	d.Update(5, 9)
	d.Flush()
	if v, ok := d.Predict(5); !ok || v != 9 {
		t.Fatal("flush did not drain queue")
	}
	d.Update(5, 10)
	d.Reset()
	if _, ok := d.Predict(5); ok {
		t.Fatal("reset did not clear state")
	}
	if d.Name() != "last-value+delay" {
		t.Errorf("name = %q", d.Name())
	}
}

func TestDelayedRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay accepted")
		}
	}()
	NewDelayed(NewLastValue(8), -1)
}

func TestConfidenceCounters(t *testing.T) {
	c := NewConfidence(NewLastValue(8), 8, 7)
	key := uint64(5)
	if c.ConfidenceOf(key) != 0 {
		t.Fatal("initial confidence not zero")
	}
	// Repeated correct predictions raise confidence to saturation.
	for i := 0; i < 12; i++ {
		c.Update(key, 42)
	}
	if got := c.ConfidenceOf(key); got != 7 {
		t.Errorf("confidence after streak = %d, want 7", got)
	}
	// One misprediction resets it.
	c.Update(key, 99)
	if got := c.ConfidenceOf(key); got != 0 {
		t.Errorf("confidence after miss = %d, want 0", got)
	}
	if v, ok := c.Predict(key); !ok || v != 42 {
		t.Errorf("inner prediction not forwarded: %d,%v", v, ok)
	}
	if c.Name() != "last-value+conf" {
		t.Errorf("name = %q", c.Name())
	}
	c.Reset()
	if c.ConfidenceOf(key) != 0 {
		t.Error("reset did not clear counters")
	}
	if _, ok := c.Predict(key); ok {
		t.Error("reset did not clear inner predictor")
	}
}

// TestConfidenceVerdict holds Verdict to the three-call sequence it
// replaces (ConfidenceOf, Predict, Update) on every kind: the same
// verdict on every step, and a twin driven the old way stays in lockstep.
func TestConfidenceVerdict(t *testing.T) {
	for _, kind := range AllKinds {
		c := NewConfidence(kind.New(), 10, 7)
		twin := NewConfidence(kind.New(), 10, 7)
		x := uint32(1)
		for i := 0; i < 20000; i++ {
			key := uint64(i % 37)
			x = x*1664525 + 1013904223
			actual := uint32(i) * uint32(key) // strided per key
			if x>>28 == 0 {
				actual = x // an occasional surprise
			}
			wantConf := twin.ConfidenceOf(key)
			wantPred, wantOK := twin.Predict(key)
			twin.Update(key, actual)
			conf, pred, ok := c.Verdict(key, actual)
			if conf != wantConf || pred != wantPred || ok != wantOK {
				t.Fatalf("%s step %d: Verdict (%d,%d,%v), want (%d,%d,%v)",
					kind, i, conf, pred, ok, wantConf, wantPred, wantOK)
			}
		}
	}
}

func TestConfidenceConstructorValidates(t *testing.T) {
	for _, f := range []func(){
		func() { NewConfidence(NewLastValue(8), 0, 7) },
		func() { NewConfidence(NewLastValue(8), 8, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad confidence args accepted")
				}
			}()
			f()
		}()
	}
}
