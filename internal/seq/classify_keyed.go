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
	ClassifyKeyedTies(data, key, kc, ids, nil)
}

// ClassifyKeyedTies is ClassifyKeyed with Appendix-D tie-breaking: an
// element whose key equals a splitter key goes to tt's bucket for its
// position, looked up in the equal-key run of that key (under the key
// contract, the splitters sharing a key are exactly one such run). A
// nil tt is ClassifyKeyed. ids must have len(data) capacity.
func ClassifyKeyedTies[E any](data []E, key func(E) uint64, kc *KeyedClassifier, ids []uint16, tt *TieTable) {
	classify(data, key, kc, ids, nil, tt)
}
