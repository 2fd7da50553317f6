package storage

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForEachVisitsAllAndReportsLowestFailure(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		var seen [50]atomic.Int32
		if err := ForEach(len(seen), workers, func(i int) error {
			seen[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if n := seen[i].Load(); n != 1 {
				t.Fatalf("workers %d: index %d ran %d times", workers, i, n)
			}
		}
		// Indices 7 and 20 fail; whichever fails first, the error is the
		// one a sequential loop would have returned.
		err := ForEach(len(seen), workers, func(i int) error {
			if i == 7 || i == 20 {
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 7" {
			t.Fatalf("workers %d: err = %v, want index 7", workers, err)
		}
	}
}
