package wormhole

// Runs reports how many lanes of the batch run; the others report a copy
// of an earlier lane's run.
func (b *Batch) Runs() int {
	n := 0
	for i, run := range b.runOf {
		if run == i {
			n++
		}
	}
	return n
}
