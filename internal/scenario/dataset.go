package scenario

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Dataset is a generated observation set: the station it belongs to, the
// generation parameters (for reproducibility), and the epochs.
type Dataset struct {
	Station Station `json:"station"`
	Config  Config  `json:"config"`
	Epochs  []Epoch `json:"epochs"`
}

// Preallocation caps for the decoders: a header's epoch or observation
// count is only a claim until the records behind it have been read, so
// ReadJSON and ReadBinary size their slices by at most these and let
// append grow them.
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

// WriteJSON streams the dataset as JSON: a header object followed by one
// epoch per line (JSON Lines), so day-scale datasets can be written and
// read without holding a second copy in memory.
func (d *Dataset) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	header := struct {
		Station Station `json:"station"`
		Config  Config  `json:"config"`
		Epochs  int     `json:"epochs"`
	}{d.Station, d.Config, len(d.Epochs)}
	if err := enc.Encode(header); err != nil {
		return fmt.Errorf("scenario: write header: %w", err)
	}
	for i := range d.Epochs {
		if err := enc.Encode(&d.Epochs[i]); err != nil {
			return fmt.Errorf("scenario: write epoch %d: %w", i, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("scenario: flush: %w", err)
	}
	return nil
}

// ReadJSON reads a dataset written by WriteJSON.
func ReadJSON(r io.Reader) (*Dataset, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var header struct {
		Station Station `json:"station"`
		Config  Config  `json:"config"`
		Epochs  int     `json:"epochs"`
	}
	if err := dec.Decode(&header); err != nil {
		return nil, fmt.Errorf("scenario: read header: %w", err)
	}
	if header.Epochs < 0 {
		return nil, fmt.Errorf("scenario: negative epoch count %d", header.Epochs)
	}
	ds := &Dataset{
		Station: header.Station,
		Config:  header.Config,
		Epochs:  make([]Epoch, 0, min(header.Epochs, maxPreallocEpochs)),
	}
	for i := 0; i < header.Epochs; i++ {
		var e Epoch
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("scenario: read epoch %d: %w", i, err)
		}
		ds.Epochs = append(ds.Epochs, e)
	}
	return ds, nil
}

// SaveFile writes the dataset to path.
func (d *Dataset) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("scenario: create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("scenario: close %s: %w", path, cerr)
		}
	}()
	return d.WriteJSON(f)
}

// LoadFile reads a dataset from path.
func LoadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: open %s: %w", path, err)
	}
	defer f.Close()
	return ReadJSON(f)
}
