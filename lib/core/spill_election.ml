(* Chaitin's spill election from a lazy binary min-heap.

   Entries are (ratio, id) pairs kept in two parallel arrays; [keys] is a
   flat float array, and every comparison reads both keys out of it in
   one toplevel function, so no float is ever boxed. *)

type t = {
  costs : float array;
  degree : int array;
  first : int;
  candidate : int -> bool;
  mutable built : bool;
  mutable keys : float array;
  mutable ids : int array;
  mutable size : int;
}

let check_costs ~who costs =
  Array.iter
    (fun c ->
      if Float.is_nan c || c < 0. then
        invalid_arg (who ^ ": spill costs must be >= 0 and not NaN"))
    costs

let create ~costs ~degree ~first ~candidate =
  { costs; degree; first; candidate; built = false;
    keys = [||]; ids = [||]; size = 0 }

let ratio t i = t.costs.(i) /. float_of_int (max t.degree.(i) 1)

(* heap order: lower ratio first, ties to the lower id *)
let less keys ids a b =
  let ka = Array.unsafe_get keys a and kb = Array.unsafe_get keys b in
  ka < kb || (ka = kb && Array.unsafe_get ids a < Array.unsafe_get ids b)

let swap t a b =
  let k = t.keys.(a) and i = t.ids.(a) in
  t.keys.(a) <- t.keys.(b);
  t.ids.(a) <- t.ids.(b);
  t.keys.(b) <- k;
  t.ids.(b) <- i

let rec sift_up t j =
  if j > 0 then begin
    let p = (j - 1) / 2 in
    if less t.keys t.ids j p then begin
      swap t j p;
      sift_up t p
    end
  end

let rec sift_down t j =
  let l = (2 * j) + 1 in
  if l < t.size then begin
    let r = l + 1 in
    let c = if r < t.size && less t.keys t.ids r l then r else l in
    if less t.keys t.ids c j then begin
      swap t c j;
      sift_down t c
    end
  end

(* The heap holds every candidate at its ratio when the first election
   asks for it; later pushes before that point would be redundant. *)
let build t =
  t.built <- true;
  let n = Array.length t.costs in
  t.keys <- Array.make (max (n - t.first) 1) 0.;
  t.ids <- Array.make (max (n - t.first) 1) 0;
  for i = t.first to n - 1 do
    if t.candidate i then begin
      t.keys.(t.size) <- ratio t i;
      t.ids.(t.size) <- i;
      t.size <- t.size + 1
    end
  done;
  for j = (t.size / 2) - 1 downto 0 do
    sift_down t j
  done

let push t i =
  if t.built then begin
    if t.size = Array.length t.keys then begin
      let cap = 2 * t.size in
      let keys = Array.make cap 0. and ids = Array.make cap 0 in
      Array.blit t.keys 0 keys 0 t.size;
      Array.blit t.ids 0 ids 0 t.size;
      t.keys <- keys;
      t.ids <- ids
    end;
    t.keys.(t.size) <- ratio t i;
    t.ids.(t.size) <- i;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)
  end

let pop_top t =
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.keys.(0) <- t.keys.(t.size);
    t.ids.(0) <- t.ids.(t.size);
    sift_down t 0
  end

let rec elect t =
  if not t.built then build t;
  if t.size = 0 then -1
  else begin
    let i = t.ids.(0) in
    if not (t.candidate i) then begin
      pop_top t;
      elect t
    end
    else begin
      let r = ratio t i in
      if r = t.keys.(0) then begin
        pop_top t;
        i
      end
      else begin
        (* stale: the ratio rose since this entry was pushed *)
        t.keys.(0) <- r;
        sift_down t 0;
        elect t
      end
    end
  end
