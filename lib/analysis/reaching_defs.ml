open Ra_support

type site =
  | Entry
  | At of int

type t = {
  proc : Ra_ir.Proc.t;
  cfg : Ra_ir.Cfg.t;
  sites : site array; (* def id -> site *)
  vregs : int array; (* def id -> vreg index *)
  def_of_instr : int option array; (* instr idx -> def id *)
  defs_of_vreg : int list array; (* vreg index -> def ids (entry first) *)
  reach_in : Bitset.t array;
}

let compute (proc : Ra_ir.Proc.t) (cfg : Ra_ir.Cfg.t) : t =
  let code = proc.code in
  let n_instr = Array.length code in
  let n_vregs = proc.next_int + proc.next_flt in
  let index = Liveness.vreg_index proc in
  (* collect definitions: entry defs occupy ids 0..n_vregs-1 *)
  let sites = ref [] and vregs = ref [] in
  let def_of_instr = Array.make n_instr None in
  let next_id = ref n_vregs in
  for i = 0 to n_instr - 1 do
    match Ra_ir.Instr.defs (code.(i)).ins with
    | [] -> ()
    | [ d ] ->
      def_of_instr.(i) <- Some !next_id;
      sites := At i :: !sites;
      vregs := index d :: !vregs;
      incr next_id
    | _ :: _ :: _ ->
      (* the IR defines at most one register per instruction *)
      assert false
  done;
  let n_defs = !next_id in
  let sites =
    Array.append
      (Array.init n_vregs (fun _ -> Entry))
      (Array.of_list (List.rev !sites))
  in
  let vregs =
    Array.append
      (Array.init n_vregs (fun v -> v))
      (Array.of_list (List.rev !vregs))
  in
  let defs_of_vreg = Array.make n_vregs [] in
  for d = n_defs - 1 downto 0 do
    defs_of_vreg.(vregs.(d)) <- d :: defs_of_vreg.(vregs.(d))
  done;
  (* gen/kill per block: last def of each vreg in the block generates;
     any def of a vreg kills all its other defs *)
  let n_blocks = Ra_ir.Cfg.n_blocks cfg in
  let gen = Array.init n_blocks (fun _ -> Bitset.create n_defs) in
  let kill = Array.init n_blocks (fun _ -> Bitset.create n_defs) in
  Array.iter
    (fun (b : Ra_ir.Cfg.block) ->
      let g = gen.(b.bindex) and k = kill.(b.bindex) in
      for i = b.first to b.last do
        match def_of_instr.(i) with
        | None -> ()
        | Some d ->
          let v = vregs.(d) in
          List.iter
            (fun other ->
              Bitset.add k other;
              Bitset.remove g other)
            defs_of_vreg.(v);
          Bitset.add g d;
          Bitset.remove k d
      done)
    cfg.blocks;
  let entry_fact = Bitset.create n_defs in
  for v = 0 to n_vregs - 1 do
    Bitset.add entry_fact v
  done;
  let result =
    Dataflow.solve ~cfg ~universe:n_defs ~gen ~kill
      ~direction:Dataflow.Forward ~entry_fact ()
  in
  { proc; cfg; sites; vregs; def_of_instr; defs_of_vreg;
    reach_in = result.Dataflow.live_in }

let n_defs t = Array.length t.sites
let site_of t d = t.sites.(d)
let vreg_of t d = t.vregs.(d)
let def_at t i = t.def_of_instr.(i)
let reaching_in t b = t.reach_in.(b)

let iter_uses t ~f =
  let code = t.proc.code in
  let index = Liveness.vreg_index t.proc in
  (* the current in-block definition of vreg [v] is [local.(v)] while
     [stamp.(v)] holds the block's mark; otherwise fall back to reach_in *)
  let n_vregs = Array.length t.defs_of_vreg in
  let local = Array.make n_vregs 0 and stamp = Array.make n_vregs (-1) in
  Array.iter
    (fun (b : Ra_ir.Cfg.block) ->
      let mark = b.bindex in
      let rin = t.reach_in.(b.bindex) in
      for i = b.first to b.last do
        let uses = Ra_ir.Instr.uses (code.(i)).ins in
        List.iter
          (fun u ->
            let v = index u in
            let reaching =
              if stamp.(v) = mark then [ local.(v) ]
              else List.filter (fun d -> Bitset.mem rin d) t.defs_of_vreg.(v)
            in
            (* The entry def reaches every use not covered by a real def.
               Unreachable blocks have an empty reach-in; fall back to the
               entry definition so dead code still gets a web. *)
            let reaching = if reaching = [] then [ v ] else reaching in
            f i v reaching)
          uses;
        match t.def_of_instr.(i) with
        | Some d ->
          let v = t.vregs.(d) in
          local.(v) <- d;
          stamp.(v) <- mark
        | None -> ()
      done)
    t.cfg.blocks
