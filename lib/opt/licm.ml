open Ra_ir
open Ra_analysis

(* One sweep over the loops, innermost (smallest) first, hoisting from
   each fruitful loop in turn. The CFG, loops, alias roots and def counts
   are computed once: a hoist moves only pure, label- and branch-free
   instructions, which changes none of them, so the sweep keeps them and
   shifts block bounds in place after each hoist (DESIGN.md, "One-sweep
   LICM"). The one exception is a hoist that empties a block; the sweep
   then stops and reports it, and [run] starts a fresh sweep on the new
   code. Returns the number hoisted and whether the sweep finished. *)
let sweep (proc : Proc.t) : int * bool =
  let code = Array.copy proc.code in
  let n = Array.length code in
  let cfg = Cfg.build code in
  let doms = Dominators.compute cfg in
  let alias = Alias.compute proc in
  let n_blocks = Cfg.n_blocks cfg in
  let first = Array.map (fun (b : Cfg.block) -> b.first) cfg.blocks in
  let last = Array.map (fun (b : Cfg.block) -> b.last) cfg.blocks in
  let index = Liveness.vreg_index proc in
  let n_vregs = max 1 (proc.next_int + proc.next_flt) in
  let def_count = Array.make n_vregs 0 in
  let bump r = def_count.(index r) <- def_count.(index r) + 1 in
  Array.iter (fun (nd : Proc.node) -> List.iter bump (Instr.defs nd.ins)) code;
  List.iter bump proc.args;
  (* per-loop scratch, stamped with the loop's ordinal so that nothing
     needs clearing between loops *)
  let in_loop = Array.make n_blocks (-1) in
  let defined_in_loop = Array.make n_vregs (-1) in
  let hoisted_def = Array.make n_vregs (-1) in
  let hoisted = Array.make n (-1) in
  (* the positions hoisted out of loop [k], in code order, or [] *)
  let try_loop k (l : Loops.loop) =
    List.iter (fun b -> in_loop.(b) <- k) l.body;
    let outside_preds =
      List.filter (fun p -> in_loop.(p) <> k) cfg.blocks.(l.header).preds
    in
    (* the unique entry must fall through from the previous block *)
    let entry_ok =
      match outside_preds with
      | [ p ] ->
        last.(p) + 1 = first.(l.header)
        && not (Instr.ends_block code.(last.(p)).ins)
      | [] | _ :: _ :: _ -> false
    in
    if not entry_ok then []
    else begin
      let loop_has_call = ref false in
      let loop_stores = ref [] in
      List.iter
        (fun b ->
          for i = first.(b) to last.(b) do
            List.iter
              (fun r -> defined_in_loop.(index r) <- k)
              (Instr.defs code.(i).ins);
            match code.(i).ins with
            | Instr.Call _ -> loop_has_call := true
            | Instr.Store (base, _, _) -> loop_stores := base :: !loop_stores
            | _ -> ()
          done)
        l.body;
      let invariant_operand r =
        let v = index r in
        defined_in_loop.(v) <> k || hoisted_def.(v) = k
      in
      let load_safe base =
        (not !loop_has_call)
        && not (List.exists (fun s -> Alias.may_alias alias s base) !loop_stores)
      in
      let candidate i =
        hoisted.(i) <> k
        && begin
          let ins = code.(i).ins in
          let pure_ok =
            match ins with
            | Instr.Li _ | Instr.Lf _ | Instr.Dim _ -> true
            (* single-def copies (CSE leftovers) hoist like any other
               pure computation *)
            | Instr.Mov _ -> true
            | Instr.Unop (_, _, _) -> true
            | Instr.Binop (op, _, _, _) ->
              (match op with
               | Instr.Idiv | Instr.Irem -> false (* may trap *)
               | Instr.Iadd | Instr.Isub | Instr.Imul | Instr.Imin
               | Instr.Imax | Instr.Fadd | Instr.Fsub | Instr.Fmul
               | Instr.Fdiv | Instr.Fmin | Instr.Fmax | Instr.Fsign -> true)
            | Instr.Load (_, base, _) -> load_safe base
            | Instr.Label _ | Instr.Store _ | Instr.Alloc _
            | Instr.Br _ | Instr.Cbr _ | Instr.Call _ | Instr.Ret _
            | Instr.Spill_st _ | Instr.Spill_ld _ -> false
          in
          pure_ok
          && (match Instr.defs ins with
              | [ d ] -> def_count.(index d) = 1
              | [] | _ :: _ :: _ -> false)
          && List.for_all invariant_operand (Instr.uses ins)
        end
      in
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun b ->
            for i = first.(b) to last.(b) do
              if candidate i then begin
                hoisted.(i) <- k;
                List.iter
                  (fun r -> hoisted_def.(index r) <- k)
                  (Instr.defs code.(i).ins);
                changed := true
              end
            done)
          l.body;
      done;
      (* [l.body] is sorted and blocks lie in code order *)
      List.concat_map
        (fun b ->
          List.filter (fun i -> hoisted.(i) = k)
            (List.init (last.(b) - first.(b) + 1) (fun j -> first.(b) + j)))
        l.body
    end
  in
  (* Move [moved] (ascending positions, marked [k] in [hoisted]) to just
     before position [target], the header's label, rewriting only the
     span between them; then shift the bounds of the blocks that start
     inside that span. Returns false if a block was left empty. *)
  let hoist k moved target =
    let lo = min target (List.hd moved) in
    let hi = max target (List.nth moved (List.length moved - 1)) in
    let old = Array.sub code lo (hi - lo + 1) in
    let new_pos = Array.make (hi - lo + 1) (-1) in
    let depth = max 0 code.(target).depth in
    let pos = ref lo in
    let put nd =
      code.(!pos) <- nd;
      incr pos
    in
    for i = lo to hi do
      if i = target then
        List.iter (fun m -> put { (old.(m - lo)) with Proc.depth = depth }) moved;
      if hoisted.(i) <> k then begin
        new_pos.(i - lo) <- !pos;
        put old.(i - lo)
      end
    done;
    let emptied = ref false in
    for b = 0 to n_blocks - 1 do
      if first.(b) >= lo && first.(b) <= hi then begin
        let i = ref first.(b) in
        while !i <= last.(b) && hoisted.(!i) = k do incr i done;
        if !i > last.(b) then emptied := true
        else if !i <= hi then first.(b) <- new_pos.(!i - lo)
        else first.(b) <- !i
      end
    done;
    for b = 0 to n_blocks - 2 do
      last.(b) <- first.(b + 1) - 1
    done;
    not !emptied
  in
  let loops =
    Loops.loops (Loops.compute cfg doms)
    |> List.sort (fun (a : Loops.loop) (b : Loops.loop) ->
         compare
           (List.length a.body, a.header)
           (List.length b.body, b.header))
  in
  let rec go k total = function
    | [] -> total, true
    | l :: rest ->
      (match try_loop k l with
       | [] -> go (k + 1) total rest
       | moved ->
         let total = total + List.length moved in
         if hoist k moved first.(l.Loops.header) then go (k + 1) total rest
         else total, false)
  in
  let total, finished = go 0 0 loops in
  if total > 0 then proc.code <- code;
  total, finished

let run proc =
  let rec go total =
    let hoisted, finished = sweep proc in
    if finished then total + hoisted else go (total + hoisted)
  in
  go 0
