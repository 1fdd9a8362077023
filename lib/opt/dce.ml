open Ra_ir
open Ra_analysis

let removable (ins : Instr.t) =
  match ins with
  | Instr.Li _ | Instr.Lf _ | Instr.Mov _ | Instr.Unop _ | Instr.Binop _
  | Instr.Dim _ | Instr.Load _ | Instr.Alloc _ -> true
  | Instr.Label _ | Instr.Store _ | Instr.Br _ | Instr.Cbr _ | Instr.Call _
  | Instr.Ret _ | Instr.Spill_st _ | Instr.Spill_ld _ -> false

(* Rounds over one CFG and one liveness solution. A round finds every
   live instruction that is removable and whose single definition is dead
   after it, and masks them all at once: the liveness numbering reads a
   masked instruction as defining and using nothing. Liveness is
   separable by register, so a round changes only the columns of the
   registers its dead instructions defined or used; [Liveness.refresh]
   re-solves just those, and the next round re-checks just the
   instructions defining them, since no other instruction's verdict can
   change (DESIGN.md, "Masked DCE rounds"). The code is filtered once at
   the end. *)
let run (proc : Proc.t) =
  let code = proc.code in
  let n = Array.length code in
  let index = Liveness.vreg_index proc in
  let universe = proc.next_int + proc.next_flt in
  let defs = Array.map (fun (nd : Proc.node) -> List.map index (Instr.defs nd.ins)) code in
  let uses = Array.map (fun (nd : Proc.node) -> List.map index (Instr.uses nd.ins)) code in
  let dead = Array.make n false in
  let numbering =
    { Liveness.universe;
      defs_of = (fun i -> if dead.(i) then [] else defs.(i));
      uses_of = (fun i -> if dead.(i) then [] else uses.(i)) }
  in
  (* the instructions mentioning each register, ascending, once each *)
  let occurs = Array.make universe [] in
  for i = n - 1 downto 0 do
    let note v =
      match occurs.(v) with
      | j :: _ when j = i -> ()
      | l -> occurs.(v) <- i :: l
    in
    List.iter note defs.(i);
    List.iter note uses.(i)
  done;
  let sites c f =
    List.iter
      (fun i ->
        if not dead.(i) then begin
          if List.mem c defs.(i) then f ~def:true i;
          if List.mem c uses.(i) then f ~def:false i
        end)
      occurs.(c)
  in
  let cfg = Cfg.build code in
  (* [check i] holds when [i] is re-examined this round *)
  let find_dead live blocks ~check =
    let found = ref [] in
    List.iter
      (fun b ->
        Liveness.iter_block_backward live b ~f:(fun i ~live_after ->
          if check i && (not dead.(i)) && removable code.(i).ins then
            match defs.(i) with
            | [ d ] ->
              if not (Ra_support.Bitset.mem live_after d) then
                found := i :: !found
            | [] | _ :: _ :: _ -> ()))
      blocks;
    !found
  in
  let column_round = Array.make universe (-1) in
  let recheck = Array.make n (-1) in
  let block_round = Array.make (Cfg.n_blocks cfg) (-1) in
  let rec rounds r live found total =
    match found with
    | [] -> total
    | _ ->
      List.iter (fun i -> dead.(i) <- true) found;
      let changed = ref [] in
      List.iter
        (fun i ->
          List.iter
            (fun v ->
              if column_round.(v) <> r then begin
                column_round.(v) <- r;
                changed := v :: !changed
              end)
            (defs.(i) @ uses.(i)))
        found;
      let live = Liveness.refresh ~old:live ~cfg numbering ~changed:!changed ~sites in
      let blocks = ref [] in
      List.iter
        (fun c ->
          List.iter
            (fun i ->
              if (not dead.(i)) && List.mem c defs.(i) then begin
                recheck.(i) <- r;
                let b = cfg.block_of_instr.(i) in
                if block_round.(b) <> r then begin
                  block_round.(b) <- r;
                  blocks := b :: !blocks
                end
              end)
            occurs.(c))
        !changed;
      let next = find_dead live !blocks ~check:(fun i -> recheck.(i) = r) in
      rounds (r + 1) live next (total + List.length found)
  in
  let live = Liveness.compute ~code ~cfg numbering in
  let found =
    find_dead live (List.init (Cfg.n_blocks cfg) Fun.id) ~check:(fun _ -> true)
  in
  let total = rounds 0 live found 0 in
  if total > 0 then begin
    let out = ref [] in
    for i = n - 1 downto 0 do
      if not dead.(i) then out := code.(i) :: !out
    done;
    proc.code <- Array.of_list !out
  end;
  total
