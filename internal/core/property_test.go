package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// KVStore is a component with richer state for equivalence testing.
type KVStore struct {
	Data map[string]string
	Ops  int
}

func (s *KVStore) Set(k, v string) (int, error) {
	if s.Data == nil {
		s.Data = make(map[string]string)
	}
	s.Data[k] = v
	s.Ops++
	return s.Ops, nil
}

func (s *KVStore) Del(k string) (int, error) {
	delete(s.Data, k)
	s.Ops++
	return s.Ops, nil
}

func (s *KVStore) Append(k, v string) (int, error) {
	if s.Data == nil {
		s.Data = make(map[string]string)
	}
	s.Data[k] += v
	s.Ops++
	return s.Ops, nil
}

func (s *KVStore) Snapshot() (map[string]string, error) {
	cp := make(map[string]string, len(s.Data))
	for k, v := range s.Data {
		cp[k] = v
	}
	return cp, nil
}

type kvOp struct {
	kind byte // 0 set, 1 del, 2 append, 3 save-state, 4 checkpoint
	k, v string
}

func applyRef(t *testing.T, ref *Ref, h *Handle, p *Process, op kvOp) {
	t.Helper()
	var err error
	switch op.kind {
	case 0:
		_, err = ref.Call("Set", op.k, op.v)
	case 1:
		_, err = ref.Call("Del", op.k)
	case 2:
		_, err = ref.Call("Append", op.k, op.v)
	case 3:
		err = h.SaveState()
	case 4:
		err = p.Checkpoint()
	}
	if err != nil {
		t.Fatalf("op %+v: %v", op, err)
	}
}

func applyModel(m map[string]string, op kvOp) {
	switch op.kind {
	case 0:
		m[op.k] = op.v
	case 1:
		delete(m, op.k)
	case 2:
		m[op.k] += op.v
	}
}

func randOps(rng *rand.Rand, n int) []kvOp {
	keys := []string{"a", "b", "c", "d"}
	ops := make([]kvOp, n)
	for i := range ops {
		op := kvOp{
			kind: byte(rng.Intn(5)),
			k:    keys[rng.Intn(len(keys))],
			v:    fmt.Sprintf("v%d", rng.Intn(100)),
		}
		// Keep mutations dominant so there is state to recover.
		if op.kind >= 3 && rng.Intn(3) != 0 {
			op.kind = byte(rng.Intn(3))
		}
		ops[i] = op
	}
	return ops
}

// TestCrashRecoveryEquivalenceProperty: for random workloads with
// random checkpoint placement and a crash at a random position, the
// recovered component state equals a model that applied exactly the
// completed operations. Every external call is acknowledged only after
// its effects are forced (Algorithm 3), so nothing acknowledged may be
// lost. The trials run under each LogMode, with Section 3.5's
// multi-call optimization off and on.
func TestCrashRecoveryEquivalenceProperty(t *testing.T) {
	for _, multiCall := range []bool{false, true} {
		for _, mode := range []LogMode{LogBaseline, LogOptimized} {
			for trial := 0; trial < 10; trial++ {
				rng := rand.New(rand.NewSource(int64(101*trial + 7 + int(mode))))
				ops := randOps(rng, 5+rng.Intn(25))
				crashAt := rng.Intn(len(ops) + 1)

				u := newTestUniverse(t)
				cfg := testConfig()
				cfg.LogMode = mode
				cfg.MultiCall = multiCall
				m, p := startProc(t, u, "evo1", "srv", cfg)
				h, err := p.Create("KV", &KVStore{})
				if err != nil {
					t.Fatal(err)
				}
				ref := u.ExternalRef(h.URI())
				model := make(map[string]string)
				for i := 0; i < crashAt; i++ {
					applyRef(t, ref, h, p, ops[i])
					applyModel(model, ops[i])
				}
				p.Crash()

				p2, err := m.StartProcess("srv", cfg)
				if err != nil {
					t.Fatalf("mode=%v multiCall=%v trial=%d: restart: %v", mode, multiCall, trial, err)
				}
				res, err := ref.Call("Snapshot")
				if err != nil {
					t.Fatalf("mode=%v multiCall=%v trial=%d: snapshot: %v", mode, multiCall, trial, err)
				}
				got := res[0].(map[string]string)
				if len(got) == 0 && len(model) == 0 {
					p2.Close()
					continue
				}
				if !reflect.DeepEqual(got, model) {
					t.Errorf("mode=%v multiCall=%v trial=%d crashAt=%d:\n got %v\nwant %v",
						mode, multiCall, trial, crashAt, got, model)
				}
				// The recovered component must also keep working.
				applyRef(t, ref, h, p2, kvOp{kind: 0, k: "post", v: "crash"})
				p2.Close()
			}
		}
	}
}
