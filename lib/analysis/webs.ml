open Ra_support

type web = {
  w_id : int;
  cls : Ra_ir.Reg.cls;
  vreg : Ra_ir.Reg.t;
  def_sites : int list;
  use_sites : int list;
  has_entry_def : bool;
  spill_temp : bool;
}

type t = {
  webs : web array;
  use_maps : (int * int) list array; (* instr -> (vreg index, web id) *)
  def_maps : (int * int) list array;
  flt_base : int;
    (* The float-class key offset, frozen at build time: the procedure's
       register counters keep growing (spill insertion mints temporaries
       while consulting this structure), so the offset must be a value,
       not a live read of [proc.next_int]. *)
  uses : int list array; (* instr -> web ids used, ascending, deduplicated *)
  defs : int list array; (* instr -> web ids defined *)
}

(* The per-instruction web lists every numbering walk reads, computed
   once per table so [uses_at]/[defs_at] allocate nothing. *)
let with_lists ~webs ~use_maps ~def_maps ~flt_base =
  { webs; use_maps; def_maps; flt_base;
    uses =
      Array.map (fun m -> List.sort_uniq Int.compare (List.map snd m)) use_maps;
    defs = Array.map (List.map snd) def_maps }

let build (proc : Ra_ir.Proc.t) (cfg : Ra_ir.Cfg.t) ~is_spill_vreg : t =
  let code = proc.code in
  let n_instr = Array.length code in
  let n_vregs = proc.next_int + proc.next_flt in
  let rd = Reaching_defs.compute proc cfg in
  let uf = Union_find.create (Reaching_defs.n_defs rd) in
  (* union every definition reaching a common use *)
  Reaching_defs.iter_uses rd ~f:(fun _instr _v reaching ->
    match reaching with
    | [] -> assert false
    | first :: rest ->
      List.iter (fun d -> ignore (Union_find.union uf first d)) rest;
      ignore first);
  let find = Union_find.find uf in
  (* Per representative (a def id): the class's vreg index once it has a
     real occurrence (-1 before) — classes with one become webs — and its
     def and use sites, newest first. *)
  let n_defs = Reaching_defs.n_defs rd in
  let vreg_of_rep = Array.make n_defs (-1) in
  let def_sites = Array.make n_defs [] and use_sites = Array.make n_defs [] in
  let note_rep rep v = if vreg_of_rep.(rep) < 0 then vreg_of_rep.(rep) <- v in
  (* definitions from instructions *)
  for i = 0 to n_instr - 1 do
    match Reaching_defs.def_at rd i with
    | None -> ()
    | Some d ->
      let rep = find d in
      note_rep rep (Reaching_defs.vreg_of rd d);
      def_sites.(rep) <- i :: def_sites.(rep)
  done;
  (* uses *)
  let use_maps = Array.make n_instr [] in
  let def_maps = Array.make n_instr [] in
  Reaching_defs.iter_uses rd ~f:(fun i v reaching ->
    let rep = find (List.hd reaching) in
    note_rep rep v;
    use_sites.(rep) <- i :: use_sites.(rep);
    use_maps.(i) <- (v, rep) :: use_maps.(i));
  (* Assign dense web ids in canonical order: ascending minimum def id of
     the class (entry defs occupy ids 0 .. n_vregs-1, instruction defs
     follow in instruction order). The minimum is a property of the
     class's contents, unlike the union-find representative, whose
     identity depends on union order and ranks — [rebuild] reproduces
     this numbering without re-running reaching definitions, which only
     works against an internals-independent order. One ascending pass
     over def ids meets each class first at its minimum def. *)
  let web_of_rep = Array.make n_defs (-1) in
  let rep_of_web = Array.make n_defs (-1) in
  let n_webs = ref 0 in
  for d = 0 to n_defs - 1 do
    let rep = find d in
    if vreg_of_rep.(rep) >= 0 && web_of_rep.(rep) < 0 then begin
      web_of_rep.(rep) <- !n_webs;
      rep_of_web.(!n_webs) <- rep;
      incr n_webs
    end
  done;
  (* entry definitions that were merged into a used class *)
  let has_entry_def = Array.make !n_webs false in
  for v = 0 to n_vregs - 1 do
    let w = web_of_rep.(find v) in
    if w >= 0 then has_entry_def.(w) <- true
  done;
  let flt_base = proc.next_int in
  let reg_of_index v =
    if v < flt_base then Ra_ir.Reg.int v else Ra_ir.Reg.flt (v - flt_base)
  in
  let webs =
    Array.init !n_webs (fun w_id ->
      let rep = rep_of_web.(w_id) in
      let vreg = reg_of_index vreg_of_rep.(rep) in
      { w_id;
        cls = vreg.Ra_ir.Reg.cls;
        vreg;
        def_sites = List.rev def_sites.(rep);
        use_sites = List.rev use_sites.(rep);
        has_entry_def = has_entry_def.(w_id);
        spill_temp = is_spill_vreg vreg })
  in
  (* translate occurrence maps from reps to web ids *)
  for i = 0 to n_instr - 1 do
    use_maps.(i) <-
      List.map (fun (v, rep) -> v, web_of_rep.(rep)) use_maps.(i);
    match Reaching_defs.def_at rd i with
    | None -> ()
    | Some d ->
      def_maps.(i) <- [ Reaching_defs.vreg_of rd d, web_of_rep.(find d) ]
  done;
  with_lists ~webs ~use_maps ~def_maps ~flt_base

let n_webs t = Array.length t.webs
let web t i = t.webs.(i)
let webs t = t.webs

let of_class t cls =
  Array.to_list t.webs |> List.filter (fun w -> w.cls = cls)

let key_of t (reg : Ra_ir.Reg.t) =
  match reg.cls with
  | Ra_ir.Reg.Int_reg -> reg.id
  | Ra_ir.Reg.Flt_reg -> t.flt_base + reg.id

let use_web t i reg = List.assoc (key_of t reg) t.use_maps.(i)

let def_web t i reg = List.assoc (key_of t reg) t.def_maps.(i)

let uses_at t i = t.uses.(i)
let defs_at t i = t.defs.(i)

let entry_webs t =
  Array.to_list t.webs
  |> List.filter (fun w -> w.has_entry_def)
  |> List.map (fun w -> w.w_id)

let numbering t : Liveness.numbering =
  { Liveness.universe = n_webs t;
    defs_of = defs_at t;
    uses_of = uses_at t }

(* ---- incremental rebuild after spill insertion ---- *)

type edit = {
  instr_map : int array;
  retired : bool array;
  new_temp_regs : Ra_ir.Reg.t list;
}

(* Why renumbering only the edited webs is exact: spill insertion removes
   every occurrence of a retired web and mints temporaries whose def and
   uses are adjacent instructions of one block. A surviving web's def/use
   sites are untouched (only shifted), and removing a retired web's
   definitions cannot re-route reaching definitions into a surviving web:
   any path from a removed def (or from procedure entry past one) to a
   use with no intervening definition would have made that use reach the
   removed def — i.e. the use would itself belong to the retired web and
   be rewritten. So the surviving-web partition, each web's entry flag,
   and each web's site lists (shifted through [instr_map]) carry over
   verbatim; fresh webs are exactly the temporaries. The canonical
   min-def-id order of [build] is then reproducible: entry keys are vreg
   indices under the new float base, instruction-def keys follow the new
   code's definition sequence, and [instr_map] is strictly increasing, so
   survivors keep their relative order and temporaries interleave by def
   site. *)
let rebuild (proc : Ra_ir.Proc.t) ~(old : t) (edit : edit) : t * int array =
  let code = proc.code in
  let n_instr = Array.length code in
  let n_old = n_webs old in
  if Array.length edit.retired <> n_old then
    invalid_arg "Webs.rebuild: retired arity";
  let flt_base = proc.next_int in
  let n_vregs = proc.next_int + proc.next_flt in
  let key_of_reg (r : Ra_ir.Reg.t) =
    match r.cls with
    | Ra_ir.Reg.Int_reg -> r.id
    | Ra_ir.Reg.Flt_reg -> flt_base + r.id
  in
  (* fresh def-id of the instruction-level def at new index i *)
  let def_seq = Array.make (max n_instr 1) 0 in
  let count = ref 0 in
  for i = 0 to n_instr - 1 do
    def_seq.(i) <- n_vregs + !count;
    match Ra_ir.Instr.defs (code.(i)).ins with
    | [] -> ()
    | _ :: _ -> incr count
  done;
  (* surviving webs with shifted sites, keyed for the canonical order *)
  let shift i = edit.instr_map.(i) in
  let survivors = ref [] in
  for w = n_old - 1 downto 0 do
    if not edit.retired.(w) then begin
      let web = old.webs.(w) in
      let def_sites = List.map shift web.def_sites in
      let use_sites = List.map shift web.use_sites in
      let key =
        if web.has_entry_def then key_of_reg web.vreg
        else
          match def_sites with
          | first :: _ -> def_seq.(first)
          | [] -> invalid_arg "Webs.rebuild: web without def or entry"
      in
      survivors := (key, w, { web with def_sites; use_sites }) :: !survivors
    end
  done;
  (* temporary webs: one scan of the new code over the minted registers *)
  let temp_tbl = Hashtbl.create 16 in
  List.iter
    (fun (r : Ra_ir.Reg.t) ->
      Hashtbl.replace temp_tbl (r.id, r.cls) (ref [], ref []))
    edit.new_temp_regs;
  for i = n_instr - 1 downto 0 do
    let ins = (code.(i)).ins in
    List.iter
      (fun (r : Ra_ir.Reg.t) ->
        match Hashtbl.find_opt temp_tbl (r.id, r.cls) with
        | Some (defs, _) -> defs := i :: !defs
        | None -> ())
      (Ra_ir.Instr.defs ins);
    List.iter
      (fun (r : Ra_ir.Reg.t) ->
        match Hashtbl.find_opt temp_tbl (r.id, r.cls) with
        | Some (_, uses) -> uses := i :: !uses
        | None -> ())
      (Ra_ir.Instr.uses ins)
  done;
  let temps =
    List.filter_map
      (fun (r : Ra_ir.Reg.t) ->
        let defs, uses = Hashtbl.find temp_tbl (r.id, r.cls) in
        match !defs with
        | [] -> None (* a minted register the rewrite ended up not using *)
        | first :: _ ->
          Some
            ( def_seq.(first), -1,
              { w_id = -1;
                cls = r.cls;
                vreg = r;
                def_sites = !defs;
                use_sites = !uses;
                has_entry_def = false;
                spill_temp = true } ))
      edit.new_temp_regs
  in
  let ordered =
    List.sort
      (fun (ka, _, _) (kb, _, _) -> Int.compare ka kb)
      (!survivors @ temps)
  in
  let old_to_new = Array.make (max n_old 1) (-1) in
  let webs =
    Array.of_list ordered
    |> Array.mapi (fun w_id (_, old_id, web) ->
         if old_id >= 0 then old_to_new.(old_id) <- w_id;
         { web with w_id })
  in
  let use_maps = Array.make n_instr [] in
  let def_maps = Array.make n_instr [] in
  Array.iter
    (fun web ->
      let key = key_of_reg web.vreg in
      List.iter
        (fun i -> def_maps.(i) <- [ (key, web.w_id) ])
        web.def_sites;
      List.iter
        (fun i -> use_maps.(i) <- (key, web.w_id) :: use_maps.(i))
        web.use_sites)
    webs;
  with_lists ~webs ~use_maps ~def_maps ~flt_base, old_to_new
