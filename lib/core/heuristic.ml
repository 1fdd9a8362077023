type t =
  | Chaitin
  | Briggs
  | Matula
  | Irc

type outcome =
  | Colored of int option array
  | Spill of int list

let name = function
  | Chaitin -> "chaitin"
  | Briggs -> "briggs"
  | Matula -> "matula"
  | Irc -> "irc"

let of_name = function
  | "chaitin" -> Some Chaitin
  | "briggs" -> Some Briggs
  | "matula" -> Some Matula
  | "irc" -> Some Irc
  | _ -> None

let assert_total (g : Igraph.t) (colors : int option array) =
  for n = Igraph.n_precolored g to Igraph.n_nodes g - 1 do
    assert (colors.(n) <> None)
  done

let run ?timer ?(tele = Ra_support.Telemetry.null) ?buckets ?pool:_
    ?(moves = [||]) ?irc_stats ?on_coalesce t g ~k ~costs : outcome =
  let timed phase f = Ra_support.Telemetry.span tele ?timer phase f in
  match t with
  | Chaitin ->
    let { Coloring.order; marked } =
      timed Ra_support.Phase.Simplify (fun () ->
        Coloring.simplify g ~k ~costs ~policy:Coloring.Spill_during_simplify)
    in
    if marked <> [] then Spill marked
    else begin
      let { Coloring.colors; uncolored } =
        timed Ra_support.Phase.Color (fun () -> Coloring.select g ~k ~order)
      in
      (* simplification only removed degree-< k nodes: coloring must work *)
      assert (uncolored = []);
      assert_total g colors;
      Colored colors
    end
  | Briggs ->
    let { Coloring.order; marked } =
      timed Ra_support.Phase.Simplify (fun () ->
        Coloring.simplify g ~k ~costs ~policy:Coloring.Defer_to_select)
    in
    assert (marked = []);
    let { Coloring.colors; uncolored } =
      timed Ra_support.Phase.Color (fun () -> Coloring.select g ~k ~order)
    in
    if uncolored <> [] then Spill uncolored
    else begin
      assert_total g colors;
      Colored colors
    end
  | Matula ->
    let order =
      timed Ra_support.Phase.Simplify (fun () ->
        Coloring.smallest_last_order ?buckets g)
    in
    let { Coloring.colors; uncolored } =
      timed Ra_support.Phase.Color (fun () -> Coloring.select g ~k ~order)
    in
    if uncolored <> [] then Spill uncolored
    else begin
      assert_total g colors;
      Colored colors
    end
  | Irc ->
    let stats =
      match irc_stats with Some s -> s | None -> Irc.fresh_stats ()
    in
    (* the caller's stats record accumulates across class graphs; emit
       this run's deltas as counters *)
    let c0 = stats.Irc.combined
    and f0 = stats.Irc.frozen
    and x0 = stats.Irc.constrained in
    let { Irc.colors; uncolored; node_alias } =
      Irc.run ?timer ~tele ~stats ?on_coalesce g ~k ~costs ~moves
    in
    Ra_support.Telemetry.counter tele "irc.moves_coalesced"
      (stats.Irc.combined - c0);
    Ra_support.Telemetry.counter tele "irc.frozen" (stats.Irc.frozen - f0);
    Ra_support.Telemetry.counter tele "irc.constrained"
      (stats.Irc.constrained - x0);
    if uncolored <> [] then Spill uncolored
    else begin
      (* total up to coalescing: every node's surviving representative
         carries a color; coalesced members stay [None] and resolve
         through the aliasing the [on_coalesce] hook recorded *)
      for i = Igraph.n_precolored g to Igraph.n_nodes g - 1 do
        assert (colors.(node_alias.(i)) <> None)
      done;
      Colored colors
    end
