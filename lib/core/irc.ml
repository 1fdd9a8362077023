(* George–Appel iterated register coalescing over one class graph.

   Where Chaitin's aggressive scheme (Build's [Aggressive] mode) merges
   any non-interfering copy before Simplify ever runs — rebuilding the
   whole graph per round and risking uncolorable merged webs — this
   engine interleaves *conservative* coalescing with the degree-ordered
   Simplify loop itself. Moves live on worklists and each is coalesced
   only when a conservative test proves the merge cannot turn a
   colorable graph uncolorable:

   - Briggs: the combined node has fewer than k neighbors of significant
     (>= k) degree;
   - George: every neighbor of one endpoint either already interferes
     with the other endpoint or has insignificant degree.

   Node bookkeeping follows Appel's worklist formulation with lazy
   deletion: each node carries a [kind] (its current worklist) and the
   worklist stacks may hold stale entries, validated on pop. Degrees,
   adjacency and the move lists are maintained incrementally — the graph
   is never rebuilt. Combined edges are recorded in an overlay
   ([Bit_matrix] + appended adjacency) so the underlying {!Igraph} stays
   untouched and remains valid for the verification passes.

   Determinism mirrors {!Coloring}: the simplify worklist is seeded in
   descending id order so pops ascend, later pushes are LIFO, moves are
   processed in staged (program) order through a FIFO, and the spill
   election is {!Coloring.simplify}'s, through {!Spill_election} —
   minimum cost/degree ratio, ties by lowest id, infinite-cost nodes
   only when nothing else remains (then optimistically pushed,
   Briggs-style; the real spill decision falls out of the select
   phase). *)

type stats = {
  mutable combined : int; (* conservative merges performed *)
  mutable constrained : int; (* moves with interfering endpoints *)
  mutable frozen : int; (* moves given up on (freeze / spill election) *)
}

let fresh_stats () = { combined = 0; constrained = 0; frozen = 0 }

type result = {
  colors : int option array;
  uncolored : int list;
  node_alias : int array;
}

type nkind =
  | Precolored
  | Simplify_wl
  | Freeze_wl
  | Spill_wl
  | Stacked
  | Coalesced_node

type mstatus =
  | M_worklist
  | M_active
  | M_frozen
  | M_constrained
  | M_coalesced

let run ?timer ?(tele = Ra_support.Telemetry.null) ?stats ?on_coalesce
    (g : Igraph.t) ~k ~costs ~(moves : (int * int) array) : result =
  let n = Igraph.n_nodes g in
  let np = Igraph.n_precolored g in
  if Array.length costs <> n then invalid_arg "Irc.run: costs arity";
  Spill_election.check_costs ~who:"Irc.run" costs;
  (* combines merge live ranges, so spill costs must merge with them:
     a combined node is exactly as expensive to spill as its members
     together. Leaving the survivor's cost alone would make coalesced
     nodes look cheap per degree and attract spill elections. *)
  let costs = Array.copy costs in
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  (* ---- node state ---- *)
  let kind = Array.init n (fun i -> if i < np then Precolored else Spill_wl) in
  let alias = Array.init n (fun i -> i) in
  let rec get_alias i =
    if kind.(i) = Coalesced_node then get_alias alias.(i) else i
  in
  (* precolored degrees sit above any decrementable value, so they are
     significant forever and never cross the < k threshold *)
  let degree =
    Array.init n (fun i -> if i < np then n + k else Igraph.degree g i)
  in
  (* adjacency = the graph's lists plus combine-time overlay edges;
     precolored rows stay empty (their adjacency is never walked) *)
  let adj = Array.make n [] in
  for i = np to n - 1 do
    adj.(i) <- Igraph.neighbors g i
  done;
  let extra = Ra_support.Bit_matrix.create n in
  let interferes u v =
    Igraph.interferes g u v || Ra_support.Bit_matrix.mem extra u v
  in
  (* ---- move state ---- *)
  let n_moves = Array.length moves in
  let mstatus = Array.make (max n_moves 1) M_worklist in
  let move_list = Array.make n [] in
  for m = n_moves - 1 downto 0 do
    let d, s = moves.(m) in
    if d < np || s < np then
      invalid_arg "Irc.run: moves must not touch precolored nodes";
    move_list.(d) <- m :: move_list.(d);
    if s <> d then move_list.(s) <- m :: move_list.(s)
  done;
  let wl_moves = Queue.create () in
  for m = 0 to n_moves - 1 do
    Queue.add m wl_moves
  done;
  let live_move m =
    match mstatus.(m) with
    | M_active | M_worklist -> true
    | M_frozen | M_constrained | M_coalesced -> false
  in
  let move_related i = List.exists live_move move_list.(i) in
  let enable_moves i =
    List.iter
      (fun m ->
        match mstatus.(m) with
        | M_active ->
          mstatus.(m) <- M_worklist;
          Queue.add m wl_moves
        | M_frozen ->
          (* unfreeze: a freeze only records that the tests failed at
             the stall it broke — the degree drop that re-enables
             active moves can equally make a frozen pair conservative,
             so thaw it for another try. Terminates because each thaw
             consumes a significant→insignificant crossing, and those
             are bounded by the initial degrees plus combine's overlay
             edges. *)
          mstatus.(m) <- M_worklist;
          Queue.add m wl_moves
        | M_worklist | M_constrained | M_coalesced -> ())
      move_list.(i)
  in
  (* ---- worklists (lazy deletion: [kind] is the truth, validated on
     pop; the spill worklist is [kind] itself plus a count) ---- *)
  let simplify_wl = ref [] in
  let freeze_wl = ref [] in
  let n_spill = ref 0 in
  let push_simplify i =
    kind.(i) <- Simplify_wl;
    simplify_wl := i :: !simplify_wl
  in
  let push_freeze i =
    kind.(i) <- Freeze_wl;
    freeze_wl := i :: !freeze_wl
  in
  let in_graph t =
    match kind.(t) with
    | Stacked | Coalesced_node -> false
    | Precolored | Simplify_wl | Freeze_wl | Spill_wl -> true
  in
  (* seeded descending so the initial pops ascend, as in Coloring *)
  for i = n - 1 downto np do
    if degree.(i) >= k then begin
      kind.(i) <- Spill_wl;
      incr n_spill
    end
    else if move_related i then push_freeze i
    else push_simplify i
  done;
  (* spill candidates are the spill worklist; a node's ratio falls only
     when combine raises its degree, so combine pushes the survivor *)
  let election =
    Spill_election.create ~costs ~degree ~first:np
      ~candidate:(fun i -> kind.(i) = Spill_wl)
  in
  let decrement_degree m =
    if m >= np then begin
      let d = degree.(m) in
      degree.(m) <- d - 1;
      if d = k then begin
        enable_moves m;
        List.iter (fun t -> if in_graph t then enable_moves t) adj.(m);
        if kind.(m) = Spill_wl then begin
          decr n_spill;
          if move_related m then push_freeze m else push_simplify m
        end
      end
    end
  in
  let add_edge u v =
    if u <> v && not (interferes u v) then begin
      Ra_support.Bit_matrix.set extra u v;
      if u >= np then begin
        adj.(u) <- v :: adj.(u);
        degree.(u) <- degree.(u) + 1
      end;
      if v >= np then begin
        adj.(v) <- u :: adj.(v);
        degree.(v) <- degree.(v) + 1
      end
    end
  in
  let add_work_list u =
    if
      u >= np && kind.(u) = Freeze_wl && (not (move_related u))
      && degree.(u) < k
    then push_simplify u
  in
  (* Briggs: < k significant-degree nodes among the union of the two
     adjacencies (dedup by generation stamp; precolored neighbors count
     as significant through their pinned degree). *)
  let stamp = Array.make n (-1) in
  let gen = ref 0 in
  let briggs_ok u v =
    incr gen;
    let cnt = ref 0 in
    let count t =
      if in_graph t && stamp.(t) <> !gen then begin
        stamp.(t) <- !gen;
        if degree.(t) >= k then incr cnt
      end
    in
    List.iter count adj.(u);
    List.iter count adj.(v);
    !cnt < k
  in
  (* George: every neighbor of [v] is insignificant, precolored-safe, or
     already a neighbor of [u]. *)
  let george_ok u v =
    List.for_all
      (fun t ->
        (not (in_graph t)) || degree.(t) < k || t < np || interferes t u)
      adj.(v)
  in
  let combine u v =
    (match kind.(v) with
     | Spill_wl -> decr n_spill
     | Freeze_wl -> () (* lazily deleted from freeze_wl *)
     | Precolored | Simplify_wl | Stacked | Coalesced_node -> assert false);
    kind.(v) <- Coalesced_node;
    alias.(v) <- u;
    costs.(u) <- costs.(u) +. costs.(v);
    move_list.(u) <- move_list.(u) @ move_list.(v);
    enable_moves v;
    List.iter
      (fun t ->
        if in_graph t then begin
          add_edge t u;
          decrement_degree t
        end)
      adj.(v);
    if degree.(u) >= k && kind.(u) = Freeze_wl then begin
      kind.(u) <- Spill_wl;
      incr n_spill
    end;
    if kind.(u) = Spill_wl then Spill_election.push election u
  in
  let coalesce_step m =
    let md, ms = moves.(m) in
    let x = get_alias md and y = get_alias ms in
    (* this allocator's moves never touch precolored nodes (physical
       registers only appear as call clobbers), but keep George's
       precolored orientation so the engine stays correct on synthetic
       inputs that do *)
    let u, v = if y < np then y, x else x, y in
    if u = v then begin
      mstatus.(m) <- M_coalesced;
      add_work_list u
    end
    else if not (in_graph u && in_graph v) then
      (* a thawed move can resurface after an endpoint was already
         stacked — too late to combine on this pass *)
      mstatus.(m) <- M_frozen
    else if v < np || interferes u v then begin
      mstatus.(m) <- M_constrained;
      stats.constrained <- stats.constrained + 1;
      add_work_list u;
      add_work_list v
    end
    else if
      (* precolored target: only George's test is safe (the combined
         node can never be simplified); otherwise any conservative
         test suffices — George's is asymmetric, so try both ways *)
      if u < np then george_ok u v
      else briggs_ok u v || george_ok u v || george_ok v u
    then begin
      mstatus.(m) <- M_coalesced;
      stats.combined <- stats.combined + 1;
      (* the caller decides which endpoint survives (the pipeline unions
         the underlying webs and reports the union-find winner); swap so
         the survivor absorbs the other — the tests are symmetric *)
      let u, v =
        match on_coalesce with
        | None -> u, v
        | Some _ when u < np -> u, v
        | Some f ->
          let w = f u v in
          if w = u then u, v
          else if w = v then v, u
          else invalid_arg "Irc.run: on_coalesce must pick an endpoint"
      in
      combine u v;
      add_work_list u
    end
    else mstatus.(m) <- M_active
  in
  let freeze_moves u =
    List.iter
      (fun m ->
        if live_move m then begin
          mstatus.(m) <- M_frozen;
          stats.frozen <- stats.frozen + 1;
          let md, ms = moves.(m) in
          let x = get_alias md and y = get_alias ms in
          let v = if y = get_alias u then x else y in
          if
            v >= np && kind.(v) = Freeze_wl && (not (move_related v))
            && degree.(v) < k
          then push_simplify v
        end)
      move_list.(u)
  in
  let select_stack = ref [] in
  let simplify_node i =
    kind.(i) <- Stacked;
    select_stack := i :: !select_stack;
    List.iter (fun t -> if in_graph t then decrement_degree t) adj.(i)
  in
  (* Coloring's spill election, optimistically pushed: select decides
     whether the elected node really spills *)
  let select_spill () =
    let m = Spill_election.elect election in
    decr n_spill;
    push_simplify m;
    freeze_moves m
  in
  let rec pop_valid wl want =
    match !wl with
    | [] -> None
    | x :: rest ->
      wl := rest;
      if kind.(x) = want then Some x else pop_valid wl want
  in
  let rec pop_move () =
    if Queue.is_empty wl_moves then None
    else begin
      let m = Queue.pop wl_moves in
      if mstatus.(m) = M_worklist then Some m else pop_move ()
    end
  in
  let rec loop () =
    match pop_valid simplify_wl Simplify_wl with
    | Some i ->
      simplify_node i;
      loop ()
    | None -> (
      match pop_move () with
      | Some m ->
        coalesce_step m;
        loop ()
      | None -> (
        match pop_valid freeze_wl Freeze_wl with
        | Some u ->
          push_simplify u;
          freeze_moves u;
          loop ()
        | None ->
          if !n_spill > 0 then begin
            select_spill ();
            loop ()
          end))
  in
  (* the whole worklist drive — simplification, conservative tests,
     freezes, spill elections — is the pass's Coalesce phase; assignment
     below reports as Color, so irc passes trace as
     build/coalesce/color where the other heuristics trace as
     build/simplify/color *)
  Ra_support.Telemetry.span tele ?timer Ra_support.Phase.Coalesce loop;
  (* ---- assign colors: pop the stack (reverse removal order), first
     free color, neighbors resolved through the move aliasing. Coalesced
     nodes keep [None] — the pipeline resolves their webs through the
     union-find it mutated per combine, which is what makes the
     mid-Simplify unions observable (and rollback-able) upstream. ---- *)
  let colors = Array.make n None in
  for p = 0 to np - 1 do
    colors.(p) <- Some p
  done;
  let uncolored = ref [] in
  Ra_support.Telemetry.span tele ?timer Ra_support.Phase.Color (fun () ->
    let in_use = Array.make (max k 1) false in
  let color_node nd =
    List.iter
      (fun w ->
        match colors.(get_alias w) with
        | Some c when c < k -> in_use.(c) <- true
        | Some _ | None -> ())
      adj.(nd);
    let rec first_free c =
      if c >= k then None
      else if in_use.(c) then first_free (c + 1)
      else Some c
    in
    (* biased coloring (Briggs): among the free colors, prefer one a
       move partner already holds — the copy then disappears in rewrite
       as a same-color move even when the conservative tests refused
       (or froze) the merge. Only the choice among free colors changes,
       never whether [nd] colors. *)
    let rec biased = function
      | [] -> first_free 0
      | m :: rest ->
        let d, s = moves.(m) in
        let p = get_alias (if get_alias d = nd then s else d) in
        (match colors.(p) with
         | Some c when c < k && not in_use.(c) -> Some c
         | Some _ | None -> biased rest)
    in
    (match biased move_list.(nd) with
     | Some c -> colors.(nd) <- Some c
     | None -> uncolored := nd :: !uncolored);
    List.iter
      (fun w ->
        match colors.(get_alias w) with
        | Some c when c < k -> in_use.(c) <- false
        | Some _ | None -> ())
      adj.(nd)
  in
    (* the stack's head is the last node pushed: reinsertion order *)
    List.iter color_node !select_stack);
  { colors;
    uncolored = List.rev !uncolored;
    node_alias = Array.init n get_alias }
