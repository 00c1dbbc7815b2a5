package scenario

// Dataset is a generated observation set: the station it belongs to, the
// generation parameters (for reproducibility), and the epochs.
type Dataset struct {
	Station Station
	Config  Config
	Epochs  []Epoch
}

// Preallocation caps for ReadBinary: a header's epoch or observation
// count is only a claim until the records behind it have been read, so
// the decoder sizes its slices by at most these and lets append grow
// them.
const (
	maxPreallocEpochs = 1 << 12
	maxPreallocObs    = 32
)

// Len returns the number of epochs.
func (d *Dataset) Len() int { return len(d.Epochs) }

// MaxSatCount returns the largest number of observations in any epoch.
func (d *Dataset) MaxSatCount() int {
	var m int
	for i := range d.Epochs {
		if n := len(d.Epochs[i].Obs); n > m {
			m = n
		}
	}
	return m
}

// MinSatCount returns the smallest number of observations in any epoch
// (0 for an empty dataset).
func (d *Dataset) MinSatCount() int {
	if len(d.Epochs) == 0 {
		return 0
	}
	m := len(d.Epochs[0].Obs)
	for i := range d.Epochs {
		if n := len(d.Epochs[i].Obs); n < m {
			m = n
		}
	}
	return m
}
