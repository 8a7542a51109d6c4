package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"
)

// Job states.
type JobState string

// Lifecycle: queued -> running -> done | failed. A failed job is retryable
// by resubmitting the same request (the content address dedupes while it is
// queued or running, and replaces it once it has failed).
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// ErrQueueFull reports that the job's shard has no queue capacity left.
var ErrQueueFull = errors.New("serve: queue full")

// Job is one in-service analysis run.
type Job struct {
	ID     string // = the request's cache key
	Tenant string
	Tier   Tier
	Parsed *ParsedJob

	events *eventLog
	done   chan struct{}

	mu        sync.Mutex
	state     JobState
	result    *Result
	cached    bool // result was served from cache, not solved by this job
	replayed  bool // result was replayed from a candidate record
	errMsg    string
	retryable bool
	started   time.Time
	finished  time.Time
}

// JobStatus is the wire snapshot of a job.
type JobStatus struct {
	ID        string   `json:"id"`
	Tenant    string   `json:"tenant"`
	Tier      string   `json:"tier,omitempty"`
	State     JobState `json:"state"`
	Cached    bool     `json:"cached,omitempty"`
	Replayed  bool     `json:"replayed,omitempty"`
	Error     string   `json:"error,omitempty"`
	Retryable bool     `json:"retryable,omitempty"`
	ElapsedMS int64    `json:"elapsed_ms,omitempty"`
	Result    *Result  `json:"result,omitempty"`
}

func newJob(p *ParsedJob, tenant string, tier Tier) *Job {
	return &Job{
		ID:     p.Key,
		Tenant: tenant,
		Tier:   tier,
		Parsed: p,
		events: newEventLog(),
		done:   make(chan struct{}),
		state:  JobQueued,
	}
}

// newCachedJob records a pure cache hit as an addressable, already-done job.
func newCachedJob(p *ParsedJob, tenant string, tier Tier, res *Result) *Job {
	j := newJob(p, tenant, tier)
	j.cached = true
	j.events.append("cached", map[string]string{"key": p.Key})
	return j.answered(res)
}

// newReplayedJob records a submission answered by replaying a candidate
// record as an addressable, already-done job; walked is the number of
// recorded candidates the replay walked.
func newReplayedJob(p *ParsedJob, tenant string, tier Tier, res *Result, walked int) *Job {
	j := newJob(p, tenant, tier)
	j.replayed = true
	j.events.append("replayed", map[string]any{"key": p.Key, "candidates": walked})
	return j.answered(res)
}

// answered finishes a job answered at submit time with res.
func (j *Job) answered(res *Result) *Job {
	j.state = JobDone
	j.result = res
	j.events.append("done", nil)
	j.events.closeLog()
	close(j.done)
	return j
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.ID,
		Tenant:    j.Tenant,
		Tier:      j.Tier.Name,
		State:     j.state,
		Cached:    j.cached,
		Replayed:  j.replayed,
		Error:     j.errMsg,
		Retryable: j.retryable,
	}
	if !j.started.IsZero() {
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		st.ElapsedMS = end.Sub(j.started).Milliseconds()
	}
	if j.state == JobDone {
		st.Result = j.result
	}
	return st
}

// Result returns the completed result, or nil while the job is not done.
func (j *Job) Result() (*Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobDone {
		return nil, false
	}
	return j.result, true
}

// Done exposes the completion channel (closed on done or failed).
func (j *Job) Done() <-chan struct{} { return j.done }

// Events exposes the progress stream for SSE delivery.
func (j *Job) Events() *eventLog { return j.events }

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = JobRunning
	j.started = time.Now()
	j.mu.Unlock()
	j.events.append("started", nil)
}

func (j *Job) complete(res *Result) {
	j.mu.Lock()
	j.state = JobDone
	j.result = res
	j.finished = time.Now()
	j.mu.Unlock()
	j.events.append("done", map[string]bool{"definitive": res.Definitive})
	j.events.closeLog()
	close(j.done)
}

// completeFromCache finishes a queued job whose key was answered by the
// cache while it waited (a duplicate finished first, or restart recovery
// reloaded the result).
func (j *Job) completeFromCache(res *Result) {
	j.mu.Lock()
	j.cached = true
	j.mu.Unlock()
	j.events.append("cached", map[string]string{"key": j.ID})
	j.complete(res)
}

func (j *Job) fail(msg string, retryable bool) {
	j.mu.Lock()
	j.state = JobFailed
	j.errMsg = msg
	j.retryable = retryable
	j.finished = time.Now()
	j.mu.Unlock()
	j.events.append("failed", map[string]any{"error": msg, "retryable": retryable})
	j.events.closeLog()
	close(j.done)
}

// queue runs N sharded workers. A job's shard is derived from its content
// address, so identical and overlapping submissions of one key serialize on
// one worker — together with submit-time deduplication this means a key is
// solved at most once at a time, and every later arrival rides the first
// run's journal and cache entry.
type queue struct {
	shards []chan *Job
	wg     sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

func newQueue(workers, depth int, run func(*Job)) *queue {
	q := &queue{shards: make([]chan *Job, workers)}
	for i := range q.shards {
		q.shards[i] = make(chan *Job, depth)
	}
	q.wg.Add(workers)
	for i := range q.shards {
		go func(ch chan *Job) {
			defer q.wg.Done()
			for job := range ch {
				run(job)
			}
		}(q.shards[i])
	}
	return q
}

func shardFor(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// submit enqueues the job on its shard; a full shard is an error (the
// caller maps it to 503, backpressure instead of unbounded memory).
func (q *queue) submit(job *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return fmt.Errorf("serve: queue closed")
	}
	select {
	case q.shards[shardFor(job.ID, len(q.shards))] <- job:
		job.events.append("queued", nil)
		return nil
	default:
		return ErrQueueFull
	}
}

// close stops intake and waits for in-flight jobs to finish.
func (q *queue) close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	for _, ch := range q.shards {
		close(ch)
	}
	q.mu.Unlock()
	q.wg.Wait()
}
