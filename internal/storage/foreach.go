package storage

import (
	"sync"
	"sync/atomic"
)

// ForEach runs fn for every index in [0, n) on up to workers
// goroutines, handing indices out in ascending order. After the first
// failure no new index starts; calls already running finish. It returns
// the error of the lowest failing index — every lower index was started
// before it and has completed, so that is the error a sequential loop
// would have returned. workers <= 1 runs the loop sequentially on the
// caller's goroutine.
func ForEach(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
