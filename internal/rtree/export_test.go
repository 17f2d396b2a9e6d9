package rtree

// PackTies STR-packs recs into an empty arena tree of the page size,
// as InsertBatch does, and returns how many of the pack's sorts took
// the tie rule.
func PackTies(pageSize int, recs []Record) (int, error) {
	t, err := NewArena(pageSize, Options{}, "packed")
	if err != nil {
		return 0, err
	}
	var ties int
	err = t.mutate(func() error {
		ties = t.packInto(recs)
		return nil
	})
	return ties, err
}
