(* Doubly-linked buckets threaded through dense int arrays: [head.(d)] is
   the first node of degree [d], [next]/[prev] link nodes within a bucket
   (-1 ends a list), and [deg.(v)] is [v]'s degree, or -1 when [v] is
   absent. The per-node arrays grow on demand to the largest id added. *)

type t = {
  mutable head : int array;
  mutable next : int array;
  mutable prev : int array;
  mutable deg : int array;
  mutable population : int;
}

let create ~max_degree =
  if max_degree < 0 then invalid_arg "Degree_buckets.create";
  { head = Array.make (max_degree + 1) (-1);
    next = [||];
    prev = [||];
    deg = [||];
    population = 0 }

(* Clear-and-reuse: empty the structure and retarget it to degrees
   [0 .. max_degree], growing the bucket array only when needed. *)
let reset t ~max_degree =
  if max_degree < 0 then invalid_arg "Degree_buckets.reset";
  if Array.length t.head < max_degree + 1 then
    t.head <- Array.make (max_degree + 1) (-1)
  else Array.fill t.head 0 (Array.length t.head) (-1);
  Array.fill t.deg 0 (Array.length t.deg) (-1);
  t.population <- 0

let mem t node = node >= 0 && node < Array.length t.deg && t.deg.(node) >= 0

let grow t node =
  let cap = max (node + 1) (2 * Array.length t.deg) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.next <- extend t.next (-1);
  t.prev <- extend t.prev (-1);
  t.deg <- extend t.deg (-1)

let unlink t node =
  let p = t.prev.(node) and n = t.next.(node) in
  if p >= 0 then t.next.(p) <- n else t.head.(t.deg.(node)) <- n;
  if n >= 0 then t.prev.(n) <- p

(* push on the front of bucket [d]: buckets pop LIFO *)
let link t node d =
  let h = t.head.(d) in
  t.deg.(node) <- d;
  t.prev.(node) <- -1;
  t.next.(node) <- h;
  if h >= 0 then t.prev.(h) <- node;
  t.head.(d) <- node

let add t node degree =
  if degree < 0 || degree >= Array.length t.head then
    invalid_arg "Degree_buckets.add: degree out of range";
  if node < 0 then invalid_arg "Degree_buckets.add: negative node";
  if mem t node then invalid_arg "Degree_buckets.add: node already present";
  if node >= Array.length t.deg then grow t node;
  link t node degree;
  t.population <- t.population + 1

let remove t node =
  if not (mem t node) then raise Not_found;
  unlink t node;
  t.deg.(node) <- -1;
  t.population <- t.population - 1

let degree t node = if mem t node then t.deg.(node) else raise Not_found

let decrease t node =
  let d = degree t node in
  if d = 0 then invalid_arg "Degree_buckets.decrease: degree is 0";
  unlink t node;
  link t node (d - 1)

let pop_min t ~hint =
  if t.population = 0 then None
  else begin
    let limit = Array.length t.head in
    (* A positive hint can overshoot only if every node below it is gone;
       population > 0 guarantees a restart from 0 finds something. *)
    let rec search i =
      if i >= limit then search 0
      else if t.head.(i) >= 0 then i
      else search (i + 1)
    in
    let d = search (max hint 0) in
    let node = t.head.(d) in
    remove t node;
    Some (node, d)
  end

let is_empty t = t.population = 0

let cardinal t = t.population
