package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func definitiveResult(key string) *Result {
	return &Result{Key: key, Definitive: true, Rungs: []RungResult{
		{TargetPercent: 3, BaselineCost: 10, Threshold: 10.3, Exhausted: true},
	}}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		if !c.Put(key, definitiveResult(key)) {
			t.Fatalf("Put(%s) refused", key)
		}
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("oldest entry survived past capacity")
	}
	for _, key := range []string{"k1", "k2"} {
		if _, ok := c.Get(key); !ok {
			t.Fatalf("%s evicted early", key)
		}
	}
	// Touching k1 makes k2 the LRU victim.
	c.Get("k1")
	c.Put("k3", definitiveResult("k3"))
	if _, ok := c.Get("k2"); ok {
		t.Fatal("recently-touched entry was evicted instead of the LRU one")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCacheRefusesUncertified(t *testing.T) {
	c := NewCache(4)
	if c.Put("k", nil) {
		t.Fatal("cached nil")
	}
	if c.Put("k", &Result{Key: "k", Definitive: false}) {
		t.Fatal("cached a non-definitive result across the trust boundary")
	}
	if c.Put("k", definitiveResult("other-key")) {
		t.Fatal("cached a result under a key it does not belong to")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("refused puts left entries: %+v", st)
	}
	// Overwriting an existing entry with the same key is idempotent.
	c.Put("k", definitiveResult("k"))
	c.Put("k", definitiveResult("k"))
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("duplicate put duplicated the entry: %+v", st)
	}
}

func TestTenantTokenBucket(t *testing.T) {
	clock := time.Unix(0, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	advance := func(d time.Duration) { mu.Lock(); clock = clock.Add(d); mu.Unlock() }

	tn := NewTenants(Tier{Name: "default", Rate: 2, Burst: 2}, map[string]Tier{
		"open": {Name: "open"}, // zero Rate = unlimited
	}, now)

	if !tn.Admit("a") || !tn.Admit("a") {
		t.Fatal("burst of 2 rejected")
	}
	if tn.Admit("a") {
		t.Fatal("third request inside the window admitted")
	}
	if !tn.Admit("b") {
		t.Fatal("tenant buckets are not independent")
	}
	advance(500 * time.Millisecond) // refills one token at 2/s
	if !tn.Admit("a") {
		t.Fatal("no refill after half a second at rate 2")
	}
	if tn.Admit("a") {
		t.Fatal("refill exceeded the elapsed-time budget")
	}
	for i := 0; i < 100; i++ {
		if !tn.Admit("open") {
			t.Fatal("unlimited tier rejected a request")
		}
	}
	st := tn.Stats()
	if st["a"].Admitted != 3 || st["a"].Throttled != 2 {
		t.Fatalf("tenant a stats: %+v", st["a"])
	}
	if got := tn.TierFor("open").Name; got != "open" {
		t.Fatalf("TierFor(open) = %s", got)
	}
	if got := tn.TierFor("unknown").Name; got != "default" {
		t.Fatalf("TierFor(unknown) = %s", got)
	}
}

func TestEventLogFollowReplaysAndTails(t *testing.T) {
	log := newEventLog()
	log.append("queued", nil)
	log.append("started", nil)

	got := make(chan string, 16)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		log.follow(ctx, 0, func(ev Event) error {
			got <- ev.Type
			return nil
		})
		close(got)
	}()

	want := []string{"queued", "started", "iter", "done"}
	log.append("iter", map[string]int{"iter": 1})
	log.append("done", nil)
	log.closeLog()
	wg.Wait()

	var seen []string
	for tp := range got {
		seen = append(seen, tp)
	}
	if len(seen) != len(want) {
		t.Fatalf("events %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("events %v, want %v", seen, want)
		}
	}

	// A late follower starting past the history sees nothing on a closed log.
	n, err := log.follow(context.Background(), 99, func(Event) error {
		t.Fatal("emitted an event past the end")
		return nil
	})
	if err != nil || n != 99 {
		t.Fatalf("follow past end = (%d, %v)", n, err)
	}
}

func TestEventLogFollowHonorsContext(t *testing.T) {
	log := newEventLog()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		log.follow(ctx, 0, func(Event) error { return nil })
		close(done)
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("follow did not return on context cancellation")
	}
}

func TestQueueShardingAndBackpressure(t *testing.T) {
	if a, b := shardFor("same-key", 8), shardFor("same-key", 8); a != b {
		t.Fatal("shardFor is not deterministic")
	}
	spread := map[int]bool{}
	for i := 0; i < 64; i++ {
		spread[shardFor(fmt.Sprintf("key-%d", i), 8)] = true
	}
	if len(spread) < 4 {
		t.Fatalf("64 keys landed on only %d of 8 shards", len(spread))
	}

	// One worker, depth one, blocked by a slow job: the next distinct-shard
	// submit must get backpressure, not an unbounded backlog.
	release := make(chan struct{})
	q := newQueue(1, 1, func(j *Job) { <-release })
	mk := func(id string) *Job {
		return &Job{ID: id, events: newEventLog(), done: make(chan struct{}), state: JobQueued}
	}
	if err := q.submit(mk("a")); err != nil {
		t.Fatal(err)
	}
	// Give the worker a moment to pick up "a", then fill the buffer.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := q.submit(mk("b")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("buffer never freed after the worker picked up the first job")
		}
		time.Sleep(time.Millisecond)
	}
	if err := q.submit(mk("c")); err != ErrQueueFull {
		t.Fatalf("overfull submit: %v, want ErrQueueFull", err)
	}
	close(release)
	q.close()
	if err := q.submit(mk("d")); err == nil {
		t.Fatal("submit after close succeeded")
	}
}
