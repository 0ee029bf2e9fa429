package main

import "time"

// The ladder's load generators. Both drive one connection with one request
// in flight; they differ in what decides when the next request goes out.

// clock abstracts time so the open-loop arithmetic is testable without
// sleeping.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// SleepUntil sleeps to within spinWindow of t and spins the rest: a timer
// wake-up on this kind of machine overshoots by 0.2–0.7 ms, which an open
// loop would otherwise charge to every latency it takes from a due time.
func (wallClock) SleepUntil(t time.Time) {
	const spinWindow = time.Millisecond
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// closedLoop issues op(0), op(1), … back to back — each request is sent
// only after the previous reply, so a slow system receives less load —
// until budget has elapsed and at least minOps ran, or maxOps is reached
// (maxOps ≤ 0 means unbounded). It returns each op's latency and the wall
// time of the whole loop. op reports success; a failed op still counts as
// attempted and keeps its latency.
func closedLoop(c clock, budget time.Duration, minOps, maxOps int, op func(i int) bool) (lat []time.Duration, failed int, wall time.Duration) {
	start := c.Now()
	for i := 0; maxOps <= 0 || i < maxOps; i++ {
		t0 := c.Now()
		if i >= minOps && t0.Sub(start) >= budget {
			break
		}
		if !op(i) {
			failed++
		}
		lat = append(lat, c.Now().Sub(t0))
	}
	return lat, failed, c.Now().Sub(start)
}

// openLoop issues n ops on a fixed schedule: op i is due at start + i/rate
// regardless of how the system is doing. With one request in flight a
// stalled reply delays the sends behind it, and because every latency is
// taken from the op's due time — not from when it was finally sent — that
// wait is charged to the later samples, as a real producer would see it.
// lag is how late each op was sent (generator scheduling error plus
// queueing behind the previous reply). Closing quit (nil never closes) ends
// the schedule before the next send.
func openLoop(c clock, rate float64, n int, quit <-chan struct{}, op func(i int) bool) (lat, lag []time.Duration, failed int) {
	interval := time.Duration(float64(time.Second) / rate)
	start := c.Now()
	lat = make([]time.Duration, 0, n)
	lag = make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		c.SleepUntil(due)
		select {
		case <-quit:
			return lat, lag, failed
		default:
		}
		lag = append(lag, max(c.Now().Sub(due), 0))
		if !op(i) {
			failed++
		}
		lat = append(lat, c.Now().Sub(due))
	}
	return lat, lag, failed
}
