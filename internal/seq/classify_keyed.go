package seq

// KeyedClassifier is the PrefixClassifier of a keyed run: under the
// Config.Key contract (less(a,b) == key(a) < key(b)) a key is an
// injective prefix, so keyed and prefix-cached runs descend the same
// uint64 splitter tree.
type KeyedClassifier = PrefixClassifier

// NewKeyedClassifier builds a classifier from sorted splitter keys. At
// least one splitter is required.
func NewKeyedClassifier(splitters []uint64) *KeyedClassifier {
	return NewPrefixClassifier(splitters)
}

// ClassifyKeyed fills ids[i] with the bucket of key(data[i]),
// |{j : splitters[j] ≤ key(data[i])}| — Classifier.Bucket on raw word
// compares, feeding PartitionInPlaceIDs. ids must have len(data)
// capacity.
func ClassifyKeyed[E any](data []E, key func(E) uint64, kc *KeyedClassifier, ids []uint16) {
	// The equal-key splitter run [lo, hi) sits at or below the key, so
	// the bucket is hi.
	ClassifyPrefixed(data, key, kc, ids, func(_, _, hi int) int { return hi })
}
