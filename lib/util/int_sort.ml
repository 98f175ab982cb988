(* In-place ascending int sort without a comparator closure (Array.sort
   pays an indirect call per comparison): insertion sort for short rows,
   median-of-three quicksort above. Ints have no distinguishable
   duplicates, so every correct ascending sort produces the identical
   array — output-equivalent to [Array.sort Int.compare].

   Hoisted out of the WL colour-refinement kernel so the k-WL tuple-key
   path (Sig_hash.of_int_multiset) shares the same closure-free sort. *)

let swap (a : int array) i j =
  let t = Array.unsafe_get a i in
  Array.unsafe_set a i (Array.unsafe_get a j);
  Array.unsafe_set a j t

(* Median-of-three Hoare partition of [lo..hi] (at least 3 slots).
   Returns [(i, j)] with j < i: [lo..j] <= pivot <= [i..hi], and every
   slot strictly between j and i holds the pivot itself. *)
let partition (a : int array) lo hi =
  let mid = (lo + hi) / 2 in
  if a.(mid) < a.(lo) then swap a mid lo;
  if a.(hi) < a.(lo) then swap a hi lo;
  if a.(hi) < a.(mid) then swap a hi mid;
  let pivot = a.(mid) in
  let i = ref lo and j = ref hi in
  while !i <= !j do
    while Array.unsafe_get a !i < pivot do incr i done;
    while Array.unsafe_get a !j > pivot do decr j done;
    if !i <= !j then begin
      swap a !i !j;
      incr i;
      decr j
    end
  done;
  (!i, !j)

let rec qsort (a : int array) lo hi =
  if hi - lo < 16 then
    for i = lo + 1 to hi do
      let x = Array.unsafe_get a i in
      let j = ref (i - 1) in
      while !j >= lo && Array.unsafe_get a !j > x do
        Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
        decr j
      done;
      Array.unsafe_set a (!j + 1) x
    done
  else begin
    let i, j = partition a lo hi in
    qsort a lo j;
    qsort a i hi
  end

let sort a = if Array.length a > 1 then qsort a 0 (Array.length a - 1)

(* Quickselect on [qsort]'s partition, keeping only the side that holds
   rank [k]. Each round is linear; after 2·log2 n rounds without
   reaching a short range (an adversarial input) the remaining range is
   heap-sorted by [Array.sort], so the worst case stays O(n log n). *)
let select (a : int array) k =
  let n = Array.length a in
  if k < 0 || k >= n then invalid_arg "Int_sort.select: rank out of bounds";
  let lo = ref 0 and hi = ref (n - 1) in
  let rounds = ref 0 in
  let limit = 2 * (1 + int_of_float (Float.log2 (float_of_int n))) in
  while !hi - !lo >= 16 && !rounds < limit do
    incr rounds;
    let i, j = partition a !lo !hi in
    if k <= j then hi := j
    else if k >= i then lo := i
    else begin
      (* Between j and i every slot is the pivot. *)
      lo := k;
      hi := k
    end
  done;
  if !hi - !lo < 16 then qsort a !lo !hi
  else begin
    let len = !hi - !lo + 1 in
    let rest = Array.sub a !lo len in
    Array.sort Int.compare rest;
    Array.blit rest 0 a !lo len
  end;
  a.(k)

let sorted_copy a =
  let c = Array.copy a in
  sort c;
  c
