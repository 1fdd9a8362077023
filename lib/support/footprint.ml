(* Serialization tokens for DAG tasks, and the access keys of the
   race-check hooks.

   A [resource] is a *declared* token a task reads or writes; a [key] is
   an *observed* access point at the granularity the instrumentation
   hooks record (one row, one block, one object). Objects and tokens are
   identified by process-unique integer ids drawn from {!fresh_uid}. *)

type resource =
  | State of int (* an abstract serialization token (no access hooks) *)
  | Telemetry (* the process sink; mutex-protected, so never a conflict *)

type key =
  | K_bitset of int
  | K_bit_matrix_row of int * int (* id, row; row = -1 for whole object *)
  | K_igraph_row of int * int (* id, row *)
  | K_edge_cache_block of int * int (* id, block *)
  | K_liveness of int
  | K_telemetry

type t = {
  reads : resource list;
  writes : resource list;
}

let uid_counter = Atomic.make 0

let fresh_uid () = Atomic.fetch_and_add uid_counter 1

(* [Telemetry] is self-synchronized (every emission runs under the
   sink's mutex), so two tasks writing it do not conflict — it stays in
   the vocabulary only so footprints can say they emit. *)
let overlap a b =
  match a, b with
  | State i, State j -> i = j
  | Telemetry, _ | _, Telemetry -> false

(* First (write of [a]) × (read ∪ write of [b]) overlap, if any. The
   caller checks both orders. *)
let conflict a b =
  List.find_map
    (fun wa ->
      Option.map (fun rb -> wa, rb)
        (List.find_opt (overlap wa) (b.writes @ b.reads)))
    a.writes

(* Symmetric form for dependency-edge derivation: does either side write
   something the other touches? *)
let conflicts a b = conflict a b <> None || conflict b a <> None

let key_to_string = function
  | K_bitset id -> Printf.sprintf "bitset#%d" id
  | K_bit_matrix_row (id, row) ->
    if row < 0 then Printf.sprintf "bit-matrix#%d[*]" id
    else Printf.sprintf "bit-matrix#%d[%d]" id row
  | K_igraph_row (id, row) -> Printf.sprintf "igraph#%d[%d]" id row
  | K_edge_cache_block (id, b) -> Printf.sprintf "edge-cache#%d[%d]" id b
  | K_liveness id -> Printf.sprintf "liveness#%d" id
  | K_telemetry -> "telemetry"
