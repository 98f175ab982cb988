(** Closure-free in-place ascending sort for [int array].

    Output-equivalent to [Array.sort Int.compare] (ints have no
    distinguishable duplicates, so any correct ascending sort yields the
    identical array) but avoids the indirect comparator call per
    comparison — the difference is measurable on the WL/k-WL hot paths
    where millions of short neighbour/tuple rows are sorted per round. *)

(** Sort [a] in place, ascending. *)
val sort : int array -> unit

(** [select a k] is the element of rank [k] (0-based) of [a], i.e.
    [(sorted_copy a).(k)], found in expected linear time by quickselect.
    [a] is permuted in place; any number of selections may follow on the
    same array. The worst case is O(n log n): a range that has not
    shrunk to a few elements after about 2·log2 n partition rounds is
    sorted instead. Raises [Invalid_argument] unless [0 <= k < length a]. *)
val select : int array -> int -> int

(** Ascending-sorted copy; the argument is left untouched. *)
val sorted_copy : int array -> int array
