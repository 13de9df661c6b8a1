package bench

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !almost(mean([]float64{1, 2, 3}), 2) {
		t.Error("mean wrong")
	}
	if mean(nil) != 0 {
		t.Error("empty mean must be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{5, 1, 4, 2}
	if minOf(xs) != 1 || maxOf(xs) != 5 {
		t.Error("min/max wrong")
	}
	if minOf(nil) != 0 || maxOf(nil) != 0 {
		t.Error("empty cases must be 0")
	}
}

func TestHistogram(t *testing.T) {
	h := newHistogram([]float64{1, 5, 10}, []float64{0.5, 1, 3, 7, 100})
	want := []int{2, 1, 1, 1}
	for i, w := range want {
		if h.counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, h.counts[i], w)
		}
	}
	if h.bucketLabel(0) != "(0, 1]" || h.bucketLabel(3) != "> 10" {
		t.Errorf("labels: %q %q", h.bucketLabel(0), h.bucketLabel(3))
	}
}

func TestBar(t *testing.T) {
	if bar(0, 10, 20) != "" {
		t.Error("zero count must render empty")
	}
	if bar(10, 10, 20) != "####################" {
		t.Errorf("full bar = %q", bar(10, 10, 20))
	}
	if bar(1, 1000, 20) != "#" {
		t.Error("tiny nonzero count must render one mark")
	}
}
