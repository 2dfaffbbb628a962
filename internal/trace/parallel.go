package trace

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Shard-ownership rules for the parallel trace pipeline (DESIGN.md §10):
// every parallel phase is a flat task list where task i owns result slot
// i exclusively - no task touches the Set, the skipped total, or another
// task's slot. Workers pull task indices from a single atomic counter,
// so the only synchronization is the counter and the final WaitGroup.
// The caller merges the slots *sequentially, in task order*, which makes
// the result - record order, skipped count, and which error is reported
// first - independent of both worker count and scheduling.

// defaultWorkers is the worker count used when ReadOptions.Workers <= 0.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// runTasks calls task(i, worker) for every i in [0, n) on a pool of at
// most workers goroutines. worker is the index of the goroutine running
// the task, so tasks can fold into per-worker partial accumulators; only
// commutative merges may rely on it, because the assignment of tasks to
// workers depends on scheduling. Everything else communicates through
// slot i.
func runTasks(workers, n int, task func(i, worker int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			task(i, 0)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				task(i, worker)
			}
		}(w)
	}
	wg.Wait()
}
