open Ra_support

type numbering = {
  universe : int;
  defs_of : int -> int list;
  uses_of : int -> int list;
}

type t = {
  numbering : numbering;
  cfg : Ra_ir.Cfg.t;
  gen : Bitset.t array; (* upward-exposed uses, per block *)
  kill : Bitset.t array; (* defs, per block *)
  result : Dataflow.result;
  scratch : Bitset.t;
}

let vreg_index (proc : Ra_ir.Proc.t) (r : Ra_ir.Reg.t) =
  match r.cls with
  | Ra_ir.Reg.Int_reg -> r.id
  | Ra_ir.Reg.Flt_reg -> proc.next_int + r.id

let vreg_numbering (proc : Ra_ir.Proc.t) =
  let code = proc.code in
  let index = vreg_index proc in
  { universe = proc.next_int + proc.next_flt;
    defs_of = (fun i -> List.map index (Ra_ir.Instr.defs (code.(i)).ins));
    uses_of = (fun i -> List.map index (Ra_ir.Instr.uses (code.(i)).ins)) }

(* Upward-exposed uses and defs of one block, into cleared sets. *)
let block_gen_kill numbering (b : Ra_ir.Cfg.block) ~gen ~kill =
  for i = b.first to b.last do
    List.iter
      (fun u -> if not (Bitset.mem kill u) then Bitset.add gen u)
      (numbering.uses_of i);
    List.iter (fun d -> Bitset.add kill d) (numbering.defs_of i)
  done


(* Tag the faces of a solution its readers share — the live-in/out
   arrays and the iteration scratch — with one coarse race-check key, so
   the detector reports a race on the solution once, not per set.
   gen/kill stay under their own identities: only the solver reads
   them. *)
let stamp ~result ~scratch =
  let key = Footprint.K_liveness (Footprint.fresh_uid ()) in
  Array.iter (fun s -> Bitset.set_key s key) result.Dataflow.live_in;
  Array.iter (fun s -> Bitset.set_key s key) result.Dataflow.live_out;
  Bitset.set_key scratch key

let compute ~code ~cfg numbering =
  let n = Ra_ir.Cfg.n_blocks cfg in
  let universe = numbering.universe in
  let gen = Array.init n (fun _ -> Bitset.create universe) in
  let kill = Array.init n (fun _ -> Bitset.create universe) in
  Array.iter
    (fun (b : Ra_ir.Cfg.block) ->
      block_gen_kill numbering b ~gen:gen.(b.bindex) ~kill:kill.(b.bindex))
    cfg.blocks;
  let result =
    Dataflow.solve ~cfg ~universe ~gen ~kill ~direction:Dataflow.Backward ()
  in
  ignore code;
  let scratch = Bitset.create universe in
  stamp ~result ~scratch;
  { numbering; cfg; gen; kill; result; scratch }

(* Incremental re-solve after a code edit that preserved the block
   structure (spill insertion). The previous solution carries over
   exactly for every id that survives the edit:

   - a surviving id's occurrences are untouched outside dirty blocks, so
     clean blocks keep their gen/kill/live facts for it verbatim (modulo
     the renumbering [remap]);
   - a retired id (a spilled web) is dropped from every set by [remap]
     returning [-1], so no stale bit can sustain itself around a loop;
   - a brand-new id (a spill temporary) is born and dies between two
     adjacent instructions of a dirty block and never crosses a block
     boundary.

   The remapped old solution is therefore a sound starting point at or
   below the new least fixpoint, and a worklist seeded with the dirty
   blocks (the only blocks whose transfer functions changed) suffices to
   reach it. Under RA_VERIFY the allocator cross-checks this against a
   from-scratch [compute]. *)
let update ~old ~code ~cfg numbering ~remap ~dirty_blocks =
  ignore code;
  let n = Ra_ir.Cfg.n_blocks cfg in
  let universe = numbering.universe in
  if Ra_ir.Cfg.n_blocks old.cfg <> n then
    invalid_arg "Liveness.update: block structure changed";
  let remap_set src =
    let dst = Bitset.create universe in
    Bitset.iter
      (fun i ->
        let j = remap i in
        if j >= 0 then Bitset.add dst j)
      src;
    dst
  in
  let dirty = Array.make n false in
  List.iter
    (fun b ->
      if b < 0 || b >= n then invalid_arg "Liveness.update: dirty block";
      dirty.(b) <- true)
    dirty_blocks;
  let gen =
    Array.init n (fun b ->
      if dirty.(b) then Bitset.create universe else remap_set old.gen.(b))
  in
  let kill =
    Array.init n (fun b ->
      if dirty.(b) then Bitset.create universe else remap_set old.kill.(b))
  in
  Array.iter
    (fun (b : Ra_ir.Cfg.block) ->
      if dirty.(b.bindex) then
        block_gen_kill numbering b ~gen:gen.(b.bindex) ~kill:kill.(b.bindex))
    cfg.blocks;
  let live_in =
    Array.init n (fun b -> remap_set old.result.Dataflow.live_in.(b))
  in
  let live_out =
    Array.init n (fun b -> remap_set old.result.Dataflow.live_out.(b))
  in
  let scratch = Bitset.create universe in
  let on_work = Array.make n false in
  let work = Queue.create () in
  let push b =
    if not on_work.(b) then begin
      on_work.(b) <- true;
      Queue.add b work
    end
  in
  List.iter push dirty_blocks;
  while not (Queue.is_empty work) do
    let b = Queue.pop work in
    on_work.(b) <- false;
    let block = cfg.Ra_ir.Cfg.blocks.(b) in
    List.iter
      (fun s -> ignore (Bitset.union_into ~into:live_out.(b) live_in.(s)))
      block.Ra_ir.Cfg.succs;
    ignore (Bitset.assign ~into:scratch live_out.(b));
    ignore (Bitset.diff_into ~into:scratch kill.(b));
    ignore (Bitset.union_into ~into:scratch gen.(b));
    if Bitset.assign ~into:live_in.(b) scratch then
      List.iter push block.Ra_ir.Cfg.preds
  done;
  let result = { Dataflow.live_in; live_out } in
  let scratch = Bitset.create universe in
  stamp ~result ~scratch;
  { numbering; cfg; gen; kill; result; scratch }

(* Re-solve after a change of numbering that kept the universe and the
   block structure (coalescing: web ids are renamed to their new class
   representatives). Liveness is separable: id [c]'s gen, kill and live
   bits in every block depend only on [c]'s own occurrences, so the
   solution is a set of independent columns, one per id. A merge
   changes exactly two columns — the surviving representative's (its
   occurrences are now the whole class's) and the absorbed one's (it
   occurs nowhere any more) — and every other column is [old]'s.

   So the changed columns' bits are cleared everywhere, word-parallel
   in one pass over the blocks, and each column is rebuilt on its own:
   gen/kill are set from its sites (a block's gen bit when
   the id's first occurrence there is a use — an instruction's uses
   count before its defs — its kill bit when it has a def), and its live
   bits are regrown by propagating backward from the gen blocks, stopping
   at kills. That reaches the column's least fixpoint, which is what a
   from-scratch [compute] finds for it. [old] is never mutated: a gen or
   kill set is copied the first time one of its bits must change
   (untouched blocks share [old]'s), and the live sets are copied whole,
   because the solution's race-check identity is stamped onto them. *)
let refresh ~old ~cfg numbering ~changed ~sites =
  let n = Ra_ir.Cfg.n_blocks cfg in
  let universe = numbering.universe in
  if old.numbering.universe <> universe then
    invalid_arg "Liveness.refresh: universe changed";
  if Ra_ir.Cfg.n_blocks old.cfg <> n then
    invalid_arg "Liveness.refresh: block structure changed";
  let mask = Bitset.create universe in
  List.iter
    (fun c ->
      if c < 0 || c >= universe then invalid_arg "Liveness.refresh: id";
      Bitset.add mask c)
    changed;
  let gen_owned = Array.make n false and kill_owned = Array.make n false in
  let cleared sets owned =
    Array.mapi
      (fun b s ->
        if Bitset.intersects s mask then begin
          let s = Bitset.copy s in
          ignore (Bitset.diff_into ~into:s mask);
          owned.(b) <- true;
          s
        end
        else s)
      sets
  in
  let gen = cleared old.gen gen_owned and kill = cleared old.kill kill_owned in
  let own sets owned b =
    if not owned.(b) then begin
      sets.(b) <- Bitset.copy sets.(b);
      owned.(b) <- true
    end
  in
  let live_copy s =
    let s = Bitset.copy s in
    ignore (Bitset.diff_into ~into:s mask);
    s
  in
  let live_in = Array.map live_copy old.result.Dataflow.live_in in
  let live_out = Array.map live_copy old.result.Dataflow.live_out in
  (* per-block first use / first def of the column being rebuilt;
     [max_int] means none, reset through [seen] after each column *)
  let first_use = Array.make n max_int and first_def = Array.make n max_int in
  let seen = ref [] in
  let work = Stack.create () in
  let rebuild_column c =
    sites c (fun ~def i ->
      let b = cfg.Ra_ir.Cfg.block_of_instr.(i) in
      if first_use.(b) = max_int && first_def.(b) = max_int then
        seen := b :: !seen;
      if def then (if i < first_def.(b) then first_def.(b) <- i)
      else if i < first_use.(b) then first_use.(b) <- i);
    List.iter
      (fun b ->
        if first_def.(b) < max_int then begin
          own kill kill_owned b;
          Bitset.add kill.(b) c
        end;
        if first_use.(b) <= first_def.(b) then begin
          own gen gen_owned b;
          Bitset.add gen.(b) c;
          Bitset.add live_in.(b) c;
          Stack.push b work
        end;
        first_use.(b) <- max_int;
        first_def.(b) <- max_int)
      !seen;
    seen := [];
    while not (Stack.is_empty work) do
      let b = Stack.pop work in
      List.iter
        (fun p ->
          if not (Bitset.mem live_out.(p) c) then begin
            Bitset.add live_out.(p) c;
            if not (Bitset.mem kill.(p) c || Bitset.mem live_in.(p) c)
            then begin
              Bitset.add live_in.(p) c;
              Stack.push p work
            end
          end)
        cfg.Ra_ir.Cfg.blocks.(b).Ra_ir.Cfg.preds
    done
  in
  List.iter rebuild_column changed;
  let result = { Dataflow.live_in; live_out } in
  let scratch = Bitset.create universe in
  stamp ~result ~scratch;
  { numbering; cfg; gen; kill; result; scratch }

let universe t = t.numbering.universe

let block_live_in t b = t.result.Dataflow.live_in.(b)
let block_live_out t b = t.result.Dataflow.live_out.(b)

let iter_block_backward ?scratch t b ~f =
  let block = t.cfg.blocks.(b) in
  let live =
    match scratch with
    | None -> t.scratch
    | Some s ->
      Bitset.reset s t.numbering.universe;
      s
  in
  ignore (Bitset.assign ~into:live (block_live_out t b));
  for i = block.last downto block.first do
    f i ~live_after:live;
    List.iter (Bitset.remove live) (t.numbering.defs_of i);
    List.iter (Bitset.add live) (t.numbering.uses_of i)
  done

let live_after t idx =
  let b = t.cfg.block_of_instr.(idx) in
  let out = ref (Bitset.create t.numbering.universe) in
  iter_block_backward t b ~f:(fun i ~live_after ->
    if i = idx then out := Bitset.copy live_after);
  !out

let entry_live_in t = block_live_in t 0
