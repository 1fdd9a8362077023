open Ra_support

type t = {
  matrix : Bit_matrix.t;
  mutable adjacency : int list array; (* reversed insertion order *)
  mutable degrees : int array;
  mutable n_precolored : int;
  mutable edges : int;
  uid : int;
}

(* Race-check hooks at igraph-row granularity: one key covers node [n]'s
   matrix row, adjacency vector and degree counter together — the unit a
   concurrent builder would have to own. The inner bit matrix is
   silenced ([Bit_matrix.set_quiet]) so its row keys don't double-report
   the same accesses under a second uid. *)

(* The guard is forced inline and the logging call kept out of line so
   the hot graph operations pay one load-and-branch when the detector is
   off, not a function call. *)
let[@inline never] log_read_on t n =
  Race_log.read (Footprint.K_igraph_row (t.uid, n))

let[@inline never] log_write_on t n =
  Race_log.write (Footprint.K_igraph_row (t.uid, n))

let[@inline always] log_read t n = if !Race_log.on then log_read_on t n
let[@inline always] log_write t n = if !Race_log.on then log_write_on t n

let create ~n_nodes ~n_precolored =
  if n_precolored > n_nodes then invalid_arg "Igraph.create";
  let matrix = Bit_matrix.create n_nodes in
  Bit_matrix.set_quiet matrix true;
  { matrix;
    adjacency = Array.make (max n_nodes 1) [];
    degrees = Array.make (max n_nodes 1) 0;
    n_precolored;
    edges = 0;
    uid = Footprint.fresh_uid () }

let reset t ~n_nodes ~n_precolored =
  if n_precolored > n_nodes then invalid_arg "Igraph.reset";
  log_write t (-1);
  Bit_matrix.resize t.matrix n_nodes;
  let cap = max n_nodes 1 in
  if Array.length t.adjacency < cap then begin
    t.adjacency <- Array.make cap [];
    t.degrees <- Array.make cap 0
  end
  else begin
    Array.fill t.adjacency 0 (Array.length t.adjacency) [];
    Array.fill t.degrees 0 (Array.length t.degrees) 0
  end;
  t.n_precolored <- n_precolored;
  t.edges <- 0

let n_nodes t = Bit_matrix.dimension t.matrix
let n_precolored t = t.n_precolored
let is_precolored t n = n < t.n_precolored

let add_edge t a b =
  if a = b then ()
  else if Bit_matrix.mem t.matrix a b then begin
    (* duplicate: still a read of both rows (the dedup membership test) *)
    log_read t a;
    log_read t b
  end
  else begin
    log_write t a;
    log_write t b;
    Bit_matrix.set t.matrix a b;
    t.adjacency.(a) <- b :: t.adjacency.(a);
    t.adjacency.(b) <- a :: t.adjacency.(b);
    t.degrees.(a) <- t.degrees.(a) + 1;
    t.degrees.(b) <- t.degrees.(b) + 1;
    t.edges <- t.edges + 1
  end

let interferes t a b =
  log_read t a;
  log_read t b;
  Bit_matrix.mem t.matrix a b

(* [degree]/[neighbors]/[iter_neighbors] deliberately carry no read
   hook: they drive the innermost simplify/select loops, and the graph
   is only ever mutated through [add_edge]/[reset] (both write-hooked)
   in the sequential merge — any task racing a row write is caught on
   the writer side, while a hook here would tax every coloring
   decision. [interferes] keeps its read hook as the semantic row query
   used around the coalescing rescans. *)
let degree t n = t.degrees.(n)

let neighbors t n = List.rev t.adjacency.(n)

(* Insertion order without the List.rev allocation: walk the reversed
   adjacency list to its end on the stack, apply [f] on the way back. *)
let iter_neighbors t n ~f =
  let rec go = function
    | [] -> ()
    | nb :: rest ->
      go rest;
      f nb
  in
  go t.adjacency.(n)

let n_edges t = t.edges


let check_coloring t ~colors =
  if Array.length colors <> n_nodes t then
    invalid_arg "Igraph.check_coloring: arity";
  let bad = ref None in
  for p = 0 to t.n_precolored - 1 do
    match colors.(p) with
    | Some c when c <> p -> if !bad = None then bad := Some (p, p)
    | Some _ | None -> ()
  done;
  for a = 0 to n_nodes t - 1 do
    iter_neighbors t a ~f:(fun b ->
      if a < b then
        match colors.(a), colors.(b) with
        | Some ca, Some cb when ca = cb -> if !bad = None then bad := Some (a, b)
        | (Some _ | None), (Some _ | None) -> ())
  done;
  !bad
