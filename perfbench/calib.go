package main

import "time"

// calibNominal is calibALU's fastest time on the reference machine, a
// 2-vCPU KVM guest on an Intel Xeon (Sapphire Rapids) host. That host's
// speed drifts by up to 40% within minutes as its other tenants come and go,
// which no repetition inside one run averages out. setup_s, the one
// bounded host time, is therefore taken at the reference speed: each set-up
// is multiplied by calibNominal over a calibALU time measured just before
// it.
const calibNominal = 400 * time.Microsecond

var calibSink uint64

// calibALU is fixed, register-only integer work with data-dependent
// branches, about 0.4 ms long. It calls nothing in the repository, so no
// change to the system under test can change its time.
func calibALU() {
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < 100_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&3 == 0 {
			acc += x >> 32
		} else {
			acc ^= x
		}
	}
	calibSink += acc
}

// calibrate returns the fastest of reps calibALU runs.
func calibrate(reps int) time.Duration {
	var best time.Duration
	for i := 0; i < reps; i++ {
		start := time.Now()
		calibALU()
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// atReference takes a host time d, measured just after a calibALU time of
// calib, to the reference speed, in seconds.
func atReference(d, calib time.Duration) float64 {
	return d.Seconds() * float64(calibNominal) / float64(calib)
}
