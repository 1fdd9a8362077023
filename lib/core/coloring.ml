open Ra_support

type spill_policy =
  | Spill_during_simplify
  | Defer_to_select

type simplify_result = {
  order : int list;
  marked : int list;
}

let simplify (g : Igraph.t) ~k ~costs ~policy : simplify_result =
  let n = Igraph.n_nodes g in
  if Array.length costs <> n then invalid_arg "Coloring.simplify: costs arity";
  Spill_election.check_costs ~who:"Coloring.simplify" costs;
  let removed = Array.make n false in
  let deg = Array.init n (fun i -> Igraph.degree g i) in
  (* Worklist of low-degree (< k) nodes: seeded in descending id order so
     pops ascend; both heuristics share this exact order. *)
  let low = ref [] in
  let in_low = Array.make n false in
  let remaining = ref 0 in
  for i = n - 1 downto Igraph.n_precolored g do
    incr remaining;
    if deg.(i) < k then begin
      low := i :: !low;
      in_low.(i) <- true
    end
  done;
  let rev_order = ref [] in
  let rev_marked = ref [] in
  let remove node =
    removed.(node) <- true;
    decr remaining;
    Igraph.iter_neighbors g node ~f:(fun nb ->
      if not (removed.(nb)) && not (Igraph.is_precolored g nb) then begin
        deg.(nb) <- deg.(nb) - 1;
        if deg.(nb) < k && not in_low.(nb) then begin
          low := nb :: !low;
          in_low.(nb) <- true
        end
      end)
  in
  let election =
    Spill_election.create ~costs ~degree:deg ~first:(Igraph.n_precolored g)
      ~candidate:(fun i -> not removed.(i))
  in
  let pick_spill_candidate () =
    let node = Spill_election.elect election in
    if costs.(node) = infinity && policy = Spill_during_simplify then
      failwith "Coloring.simplify: unspillable nodes form an uncolorable core";
    node
  in
  let rec loop () =
    match !low with
    | node :: rest ->
      low := rest;
      in_low.(node) <- false;
      if not removed.(node) then begin
        rev_order := node :: !rev_order;
        remove node
      end;
      loop ()
    | [] ->
      if !remaining > 0 then begin
        let node = pick_spill_candidate () in
        (match policy with
         | Spill_during_simplify -> rev_marked := node :: !rev_marked
         | Defer_to_select -> rev_order := node :: !rev_order);
        remove node;
        loop ()
      end
  in
  loop ();
  { order = List.rev !rev_order; marked = List.rev !rev_marked }

type select_result = {
  colors : int option array;
  uncolored : int list;
}

let select (g : Igraph.t) ~k ~order : select_result =
  let n = Igraph.n_nodes g in
  let colors = Array.make n None in
  for p = 0 to Igraph.n_precolored g - 1 do
    colors.(p) <- Some p
  done;
  let uncolored = ref [] in
  let in_use = Array.make (max k 1) false in
  let color_node node =
    Igraph.iter_neighbors g node ~f:(fun nb ->
      match colors.(nb) with
      | Some c when c < k -> in_use.(c) <- true
      | Some _ | None -> ());
    let rec first_free c = if c >= k then None else if in_use.(c) then first_free (c + 1) else Some c in
    (match first_free 0 with
     | Some c -> colors.(node) <- Some c
     | None -> uncolored := node :: !uncolored);
    (* reset scratch *)
    Igraph.iter_neighbors g node ~f:(fun nb ->
      match colors.(nb) with
      | Some c when c < k -> in_use.(c) <- false
      | Some _ | None -> ())
  in
  (* reinsert in reverse removal order *)
  List.iter color_node (List.rev order);
  { colors; uncolored = List.rev !uncolored }

let smallest_last_order ?buckets (g : Igraph.t) : int list =
  let n = Igraph.n_nodes g in
  let max_degree = max 1 (n - 1) in
  let buckets =
    match buckets with
    | Some b ->
      Degree_buckets.reset b ~max_degree;
      b
    | None -> Degree_buckets.create ~max_degree
  in
  let removed = Array.make n false in
  for i = Igraph.n_precolored g to n - 1 do
    Degree_buckets.add buckets i (Igraph.degree g i)
  done;
  let rev_order = ref [] in
  let rec drain hint =
    match Degree_buckets.pop_min buckets ~hint with
    | None -> ()
    | Some (node, d) ->
      removed.(node) <- true;
      rev_order := node :: !rev_order;
      Igraph.iter_neighbors g node ~f:(fun nb ->
        if (not removed.(nb)) && Degree_buckets.mem buckets nb then
          Degree_buckets.decrease buckets nb);
      (* the paper's observation: restart the search at N[d-1] *)
      drain (d - 1)
  in
  drain 0;
  List.rev !rev_order
