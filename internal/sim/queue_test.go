package sim

import (
	"container/heap"
	"testing"

	"repro/internal/rat"
)

// refQueue is the differential reference for the calendar queue: a
// container/heap ordered by the exact (at, seq) comparison alone, with no
// float keys, buckets or windows.
type refQueue []delivery

func (r refQueue) Len() int           { return len(r) }
func (r refQueue) Less(i, j int) bool { return r[i].before(r[j]) }
func (r refQueue) Swap(i, j int)      { r[i], r[j] = r[j], r[i] }
func (r *refQueue) Push(x any)        { *r = append(*r, x.(delivery)) }
func (r *refQueue) Pop() any {
	old := *r
	d := old[len(old)-1]
	*r = old[:len(old)-1]
	return d
}

// FuzzDeliveryQueue drives the calendar queue and the reference with the
// same interleaved push/pop sequence and requires identical pop orders.
// Sequences obey the engine's rule — nothing is pushed earlier than the
// last pop — and each input byte picks one operation from its top three
// bits, with the low five bits as its argument:
//
//	0    peek, then pop one delivery (peek must name it)
//	1    pop arg+1 deliveries
//	2    push at the last pop time (t = 0 ties, width-1 windows, and
//	     pushes into the bucket being drained)
//	3    push a small step later: now + arg/7
//	4    push at now + 1 + arg/2^60 — distinct rationals that share a
//	     float key, so only the exact comparison orders them
//	5    burst of 65 + 4·arg deliveries sharing one key, now + arg/7:
//	     a run above bucketSortThreshold that no float width splits
//	6    push at now + 1000·2^arg, beyond the window, into the overflow
//	     heap that re-seeds the wheel
//	7    burst of 65 + 16·arg deliveries at now + 1 + ((13·j) mod 997)/997:
//	     distinct keys in scrambled order, so a bucket's counting sort
//	     sees several keys per refinement bin
//
// The first byte sizes the wheel (bucketsFor of up to 2^16 processes).
func FuzzDeliveryQueue(f *testing.F) {
	f.Add([]byte{0, 0x40, 0x40, 0x40, 0x00, 0x40, 0x00, 0x40, 0x3f})       // t=0 ties and insertCur
	f.Add([]byte{0, 0xa0, 0xbf, 0x00, 0xa3, 0x3f, 0x3f, 0x3f})             // one-key runs above the threshold
	f.Add([]byte{2, 0x83, 0x81, 0x83, 0x85, 0x00, 0x84, 0x82, 0x80, 0x3f}) // shared float keys
	f.Add([]byte{3, 0x61, 0xc1, 0xdf, 0x00, 0x69, 0xc0, 0x3f, 0x65, 0x3f}) // overflow re-seeding
	f.Add([]byte{0, 0x61, 0x62, 0x00, 0xdf, 0x41, 0x3f})                   // overflow push while primed
	f.Add([]byte{0, 0x40, 0xc0, 0x00, 0xff, 0x3f, 0x3f})                   // counting sort, several keys per bin
	f.Add([]byte{255, 0xff, 0xc3, 0x00, 0xe7, 0x40, 0x3f, 0x3f})           // large wheel
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 512 {
			return
		}
		var q bucketQueue
		q.reset(int(ops[0]) << 8)
		var ref refQueue
		now := rat.Zero
		seq := int64(0)
		push := func(at Time) {
			seq++
			d := delivery{at: at, key: deliveryKey(at), seq: seq, msg: MsgID(seq)}
			q.push(d)
			heap.Push(&ref, d)
		}
		pop := func(peek bool) {
			if len(ref) == 0 {
				return
			}
			want := heap.Pop(&ref).(delivery)
			if peek {
				if d, ok := q.peek(); !ok || d.seq != want.seq {
					t.Fatalf("peek: calendar gave seq %d (ok=%v), reference seq %d", d.seq, ok, want.seq)
				}
			}
			got := q.pop()
			if got.seq != want.seq {
				t.Fatalf("pop: calendar gave seq %d at %v, reference seq %d at %v",
					got.seq, got.at, want.seq, want.at)
			}
			now = got.at
		}
		tiny := rat.New(1, 1<<60)
		for _, b := range ops[1:] {
			arg := int64(b & 0x1f)
			switch b >> 5 {
			case 0:
				pop(true)
			case 1:
				for j := int64(0); j <= arg; j++ {
					pop(false)
				}
			case 2:
				push(now)
			case 3:
				push(now.Add(rat.New(arg, 7)))
			case 4:
				push(now.Add(rat.One).Add(tiny.MulInt(arg)))
			case 5:
				at := now.Add(rat.New(arg, 7))
				for j := int64(0); j < 65+4*arg; j++ {
					push(at)
				}
			case 6:
				push(now.Add(rat.FromInt(1000 << arg)))
			case 7:
				for j := int64(0); j < 65+16*arg; j++ {
					push(now.Add(rat.One).Add(rat.New(13*j%997, 997)))
				}
			}
			if q.len() != len(ref) {
				t.Fatalf("calendar holds %d deliveries, reference %d", q.len(), len(ref))
			}
		}
		for len(ref) > 0 {
			pop(false)
		}
		if q.len() != 0 {
			t.Fatalf("calendar holds %d deliveries after the reference drained", q.len())
		}
	})
}

// TestQueueDrainAllocFree: a warmed, reused calendar drains a wide-span
// burst through sortRun's counting sort without allocating. Each round
// piles the burst into a different clump of refinement bins, the pattern
// under which separately grown per-bin slices kept paying for growth.
func TestQueueDrainAllocFree(t *testing.T) {
	const m = 1024 // bucketSortBins(m) = 256 refinement bins
	var q bucketQueue
	burst := make([]delivery, 0, m+1)
	round := 0
	drain := func() {
		c := int64(4 * (round % 63))
		round++
		burst = burst[:0]
		add := func(at Time) {
			burst = append(burst, delivery{at: at, key: deliveryKey(at), seq: int64(len(burst)), msg: MsgID(len(burst))})
		}
		// Span [0, 255] over 256 bins of width 1, the clump in bins
		// [c, c+4), and a far outlier that widens the calendar window
		// so the rest share bucket 0 and reach sortRun as one run.
		add(rat.FromInt(255))
		add(rat.Zero)
		for j := int64(0); j < m-2; j++ {
			add(rat.New(c*256+j, 256))
		}
		add(rat.FromInt(1 << 20))
		q.reset(8)
		for _, d := range burst {
			q.push(d)
		}
		prev := q.pop()
		for q.len() > 0 {
			d := q.pop()
			if !prev.before(d) {
				t.Fatalf("pop order: seq %d at %v after seq %d at %v", d.seq, d.at, prev.seq, prev.at)
			}
			prev = d
		}
	}
	if allocs := testing.AllocsPerRun(50, drain); allocs != 0 {
		t.Errorf("warmed calendar drain: %v allocs per run, want 0", allocs)
	}
	if cap(q.hist) == 0 {
		t.Fatal("burst never reached sortRun's counting sort")
	}
}
