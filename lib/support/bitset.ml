type t = {
  mutable n : int;
  mutable words : int array; (* 63-bit words; OCaml ints *)
  mutable key : Footprint.key;
    (* what the race-check hooks log accesses as: the set's own identity
       by default, overridden by an owner that wants coarser granularity
       (a liveness solution tags its live-in/out sets with one key) *)
}

let bits_per_word = 63

let words_for n = ((n + bits_per_word - 1) / bits_per_word) + 1

(* Race-check hooks: each mutator/observer reports under [t.key]. The
   [!Race_log.on] guard is the entire disabled-mode cost — one load and
   branch, forced inline so [add]/[mem]/[remove] never pay a call. *)
let[@inline never] log_read_on t = Race_log.read t.key
let[@inline never] log_write_on t = Race_log.write t.key
let[@inline always] log_read t = if !Race_log.on then log_read_on t
let[@inline always] log_write t = if !Race_log.on then log_write_on t

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { n;
    words = Array.make (words_for n) 0;
    key = Footprint.K_bitset (Footprint.fresh_uid ()) }

let set_key t key = t.key <- key

let capacity t = t.n

(* Clear-and-reuse: empty the set and retarget it to universe [n],
   growing the word array only when the current one is too small. The
   allocation context resets the same buffers pass after pass instead of
   creating fresh sets. *)
let reset t n =
  if n < 0 then invalid_arg "Bitset.reset";
  log_write t;
  let needed = words_for n in
  if Array.length t.words < needed then t.words <- Array.make needed 0
  else Array.fill t.words 0 (Array.length t.words) 0;
  t.n <- n

let check t i =
  if i < 0 || i >= t.n then invalid_arg "Bitset: out of bounds"

let add t i =
  check t i;
  log_write t;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let remove t i =
  check t i;
  log_write t;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let mem t i =
  check t i;
  log_read t;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

let copy t =
  log_read t;
  { n = t.n;
    words = Array.copy t.words;
    key = Footprint.K_bitset (Footprint.fresh_uid ()) }

let same_universe a b =
  if a.n <> b.n then invalid_arg "Bitset: universe mismatch"

(* Word arrays may be longer than the universe needs (a reused buffer
   shrunk by [reset]); bulk operations walk only the words the universe
   occupies. Words past that point are zero by invariant. *)

let union_into ~into src =
  same_universe into src;
  log_write into;
  log_read src;
  let changed = ref false in
  for w = 0 to words_for into.n - 1 do
    let next = into.words.(w) lor src.words.(w) in
    if next <> into.words.(w) then begin
      into.words.(w) <- next;
      changed := true
    end
  done;
  !changed

let diff_into ~into src =
  same_universe into src;
  log_write into;
  log_read src;
  let changed = ref false in
  for w = 0 to words_for into.n - 1 do
    let next = into.words.(w) land lnot src.words.(w) in
    if next <> into.words.(w) then begin
      into.words.(w) <- next;
      changed := true
    end
  done;
  !changed

let assign ~into src =
  same_universe into src;
  log_write into;
  log_read src;
  let changed = ref false in
  for w = 0 to words_for into.n - 1 do
    if into.words.(w) <> src.words.(w) then begin
      into.words.(w) <- src.words.(w);
      changed := true
    end
  done;
  !changed

let equal a b =
  same_universe a b;
  log_read a;
  log_read b;
  let rec go w =
    w = words_for a.n || (a.words.(w) = b.words.(w) && go (w + 1))
  in
  go 0

let is_empty t =
  log_read t;
  Array.for_all (fun w -> w = 0) t.words

let cardinal t =
  log_read t;
  let popcount x =
    let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
    go x 0
  in
  Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let clear t =
  log_write t;
  Array.fill t.words 0 (Array.length t.words) 0

(* [f] on the set bits of [word], ascending, numbered from [base]: zero
   bytes are skipped whole and the walk stops past the highest set bit,
   so a sparse word costs a few steps rather than one per bit. *)
let iter_word f base word =
  let x = ref word and n = ref base in
  while !x <> 0 do
    if !x land 0xff = 0 then begin
      x := !x lsr 8;
      n := !n + 8
    end
    else begin
      if !x land 1 <> 0 then f !n;
      x := !x lsr 1;
      incr n
    end
  done

let iter f t =
  log_read t;
  for w = 0 to Array.length t.words - 1 do
    let word = t.words.(w) in
    if word <> 0 then iter_word f (w * bits_per_word) word
  done

(* [iter_inter f a b] visits [a ∩ b] ascending without materializing it:
   words with no common bit are skipped whole. *)
let iter_inter f a b =
  same_universe a b;
  log_read a;
  log_read b;
  for w = 0 to words_for a.n - 1 do
    let word = a.words.(w) land b.words.(w) in
    if word <> 0 then iter_word f (w * bits_per_word) word
  done

let intersects a b =
  same_universe a b;
  log_read a;
  log_read b;
  let rec go w =
    w < words_for a.n && (a.words.(w) land b.words.(w) <> 0 || go (w + 1))
  in
  go 0

let elements t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc

let of_list n xs =
  let t = create n in
  List.iter (add t) xs;
  t
