type t = {
  mutable n : int;
  mutable bits : Bytes.t;
  (* Sparse-reset bookkeeping: every set bit of row [hi] (the larger
     endpoint) lives in the byte range of that row, so clearing the
     touched rows' ranges empties the relation in O(touched) instead of
     O(n^2/64). [row_touched] is a per-row flag; [touched] the stack of
     flagged rows. Invariant: every set bit belongs to a flagged row. *)
  mutable row_touched : Bytes.t;
  mutable touched : int array;
  mutable n_touched : int;
  uid : int;
  mutable quiet : bool;
    (* an owner that reports accesses at its own granularity (Igraph
       logs whole igraph rows) silences the inner matrix's hooks *)
}

(* Pair (i, j) with i >= j lives at triangular index i*(i+1)/2 + j.
   Race-check hooks report at row granularity — the larger endpoint,
   matching the sparse-reset bookkeeping; row [-1] is "the whole
   matrix" (resize/reset). *)

let[@inline never] log_read_on t row =
  if not t.quiet then Race_log.read (Footprint.K_bit_matrix_row (t.uid, row))

let[@inline never] log_write_on t row =
  if not t.quiet then Race_log.write (Footprint.K_bit_matrix_row (t.uid, row))

let[@inline always] log_read t row = if !Race_log.on then log_read_on t row
let[@inline always] log_write t row = if !Race_log.on then log_write_on t row

let triangle_size n = n * (n + 1) / 2

let bytes_for n = (triangle_size n + 7) / 8

let create n =
  if n < 0 then invalid_arg "Bit_matrix.create";
  { n;
    bits = Bytes.make (bytes_for n) '\000';
    row_touched = Bytes.make (max n 1) '\000';
    touched = [||];
    n_touched = 0;
    uid = Footprint.fresh_uid ();
    quiet = false }

let set_quiet t q = t.quiet <- q

let dimension t = t.n

let touched_rows t = t.n_touched

let forget_touched t =
  for k = 0 to t.n_touched - 1 do
    Bytes.unsafe_set t.row_touched t.touched.(k) '\000'
  done;
  t.n_touched <- 0

(* Remove every pair. Row [hi]'s bits span triangular indexes
   [hi(hi+1)/2, hi(hi+1)/2 + hi]; zeroing the whole bytes covering that
   range may also hit the neighbouring rows' boundary bits, but those are
   either 0 (untouched rows hold no bits) or being cleared too. Falls
   back to a flat fill when most rows were touched. *)
let reset t =
  log_write t (-1);
  if 2 * t.n_touched >= t.n then
    Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'
  else
    for k = 0 to t.n_touched - 1 do
      let hi = t.touched.(k) in
      let lo_idx = hi * (hi + 1) / 2 in
      let b0 = lo_idx lsr 3 and b1 = (lo_idx + hi) lsr 3 in
      Bytes.fill t.bits b0 (b1 - b0 + 1) '\000'
    done;
  forget_touched t

(* Clear-and-reuse: empty the relation and retarget it to [0, n), growing
   the byte buffer only when needed. Reused by the allocation context so
   each pass's interference matrix does not reallocate O(n^2/8) bytes —
   and, through the sparse reset, does not even rewrite them. *)
let resize t n =
  if n < 0 then invalid_arg "Bit_matrix.resize";
  log_write t (-1);
  let needed = bytes_for n in
  if Bytes.length t.bits < needed then begin
    t.bits <- Bytes.make needed '\000';
    forget_touched t
  end
  else reset t;
  if Bytes.length t.row_touched < n then t.row_touched <- Bytes.make n '\000';
  t.n <- n

let index t i j =
  if i < 0 || i >= t.n || j < 0 || j >= t.n then
    invalid_arg "Bit_matrix: index out of bounds";
  let hi, lo = if i >= j then i, j else j, i in
  (hi * (hi + 1)) / 2 + lo

let mark_touched t hi =
  if Bytes.unsafe_get t.row_touched hi = '\000' then begin
    Bytes.unsafe_set t.row_touched hi '\001';
    if t.n_touched = Array.length t.touched then begin
      let grown = Array.make (max 16 (2 * Array.length t.touched)) 0 in
      Array.blit t.touched 0 grown 0 t.n_touched;
      t.touched <- grown
    end;
    t.touched.(t.n_touched) <- hi;
    t.n_touched <- t.n_touched + 1
  end

let set t i j =
  let idx = index t i j in
  log_write t (if i >= j then i else j);
  mark_touched t (if i >= j then i else j);
  let byte = Bytes.get_uint8 t.bits (idx lsr 3) in
  Bytes.set_uint8 t.bits (idx lsr 3) (byte lor (1 lsl (idx land 7)))

let clear t i j =
  let idx = index t i j in
  log_write t (if i >= j then i else j);
  let byte = Bytes.get_uint8 t.bits (idx lsr 3) in
  Bytes.set_uint8 t.bits (idx lsr 3) (byte land lnot (1 lsl (idx land 7)))

let mem t i j =
  let idx = index t i j in
  log_read t (if i >= j then i else j);
  Bytes.get_uint8 t.bits (idx lsr 3) land (1 lsl (idx land 7)) <> 0

let count t =
  log_read t (-1);
  let total = ref 0 in
  let popcount b =
    let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc + (b land 1)) in
    go b 0
  in
  Bytes.iter (fun c -> total := !total + popcount (Char.code c)) t.bits;
  (* Bits beyond the triangle are never set, so no mask is needed. *)
  !total
