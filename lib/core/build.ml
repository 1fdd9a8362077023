open Ra_support
open Ra_ir
open Ra_analysis

exception Divergence of string

let div fmt = Format.kasprintf (fun m -> raise (Divergence m)) fmt

type t = {
  webs : Webs.t;
  alias : Union_find.t;
  int_graph : Igraph.t;
  flt_graph : Igraph.t;
  node_of_web : int array;
  web_of_node_int : int array;
  web_of_node_flt : int array;
  moves_coalesced : int;
  base_live : Liveness.t;
  rounds : int;
  cache_hits : int;
  cache_misses : int;
  moves_int : (int * int) array;
  moves_flt : (int * int) array;
}

type coalesce_mode =
  | Aggressive
  | Conservative
  | Off

let cls_of_web (webs : Webs.t) w = (Webs.web webs w).cls

(* ---- the move table ----

   Every copy of the procedure, resolved to its webs once per build: the
   m-th move in program order sits at instruction [mv_instr.(m)] and
   copies web [mv_use.(m)] into web [mv_def.(m)] (identity aliasing);
   [move_at.(i)] is the move index of instruction [i], or -1. Coalescing
   rounds, the interference query and the move staging all read these
   arrays instead of re-resolving every copy through [Webs.def_web] /
   [Webs.use_web] each round. *)

type moves = {
  mv_instr : int array;
  mv_def : int array;
  mv_use : int array;
  move_at : int array;
}

let move_table (proc : Proc.t) (webs : Webs.t) =
  let move_at = Array.make (Array.length proc.code) (-1) in
  let rev = ref [] and n = ref 0 in
  Array.iteri
    (fun i (node : Proc.node) ->
      match Instr.move_of node.ins with
      | None -> ()
      | Some (dreg, sreg) ->
        move_at.(i) <- !n;
        rev := (i, Webs.def_web webs i dreg, Webs.use_web webs i sreg) :: !rev;
        incr n)
    proc.code;
  let all = Array.of_list (List.rev !rev) in
  { mv_instr = Array.map (fun (i, _, _) -> i) all;
    mv_def = Array.map (fun (_, d, _) -> d) all;
    mv_use = Array.map (fun (_, _, s) -> s) all;
    move_at }

(* A move is a coalescing candidate when its two representatives differ
   and neither is a spill temporary (spill code stays intact). *)
let candidate (webs : Webs.t) a b =
  a <> b
  && (not (Webs.web webs a).Webs.spill_temp)
  && not (Webs.web webs b).Webs.spill_temp

(* The definitions instruction [i] interferes from, under the aliasing
   snapshot [rep] (with [numbering] its rep-mapped numbering): a copy
   defines its destination and excludes its source — the move-source
   exclusion — and any other instruction defines [numbering.defs_of i],
   excluding nothing ([-1]). The edge scan and the interference query
   both emit through this, so they cannot disagree on the rule. *)
let iter_defs (moves : moves) ~(rep : int array)
    ~(numbering : Liveness.numbering) i ~f =
  let m = moves.move_at.(i) in
  if m >= 0 then f rep.(moves.mv_def.(m)) ~excluding:rep.(moves.mv_use.(m))
  else List.iter (fun d -> f d ~excluding:(-1)) (numbering.Liveness.defs_of i)

(* At a call [i], [Some r]: its caller-save registers interfere with every
   web live after it except [r], the representative of the call's own
   result ([-1] for none). [None] at any other instruction. *)
let call_result (webs : Webs.t) (node : Proc.node) ~(rep : int array) i =
  match node.ins with
  | Instr.Call { ret; _ } ->
    Some (match ret with Some r -> rep.(Webs.def_web webs i r) | None -> -1)
  | Instr.Label _ | Instr.Li _ | Instr.Lf _ | Instr.Mov _ | Instr.Unop _
  | Instr.Binop _ | Instr.Load _ | Instr.Store _ | Instr.Alloc _ | Instr.Dim _
  | Instr.Br _ | Instr.Cbr _ | Instr.Ret _ | Instr.Spill_st _
  | Instr.Spill_ld _ -> None

(* The representatives of a base def/use list, ascending and
   deduplicated. In the common case — every web its own representative,
   the list already strictly ascending — that is the base list itself,
   returned without allocating; it equals the [List.sort_uniq] result,
   so emission order cannot depend on which path ran. *)
let rec own_sorted rep prev = function
  | [] -> true
  | w :: rest -> w > prev && rep.(w) = w && own_sorted rep w rest

let rep_ids rep ws =
  if own_sorted rep (-1) ws then ws
  else List.sort_uniq Int.compare (List.map (fun w -> rep.(w)) ws)

(* ---- encoded scan events ----

   The per-block scan hands every interference to its emitter as a pair
   of *encoded endpoints*: a web id [w >= 0] (always a representative
   under the aliasing the scan ran with), or a physical register [p]
   encoded as [-1 - p] (call clobbers pair physical registers with live
   webs). Web-granular events are what the edge cache stores — node ids
   are renumbered every build, web ids survive, renamed through
   [Webs.rebuild]'s canonical map, into the next spill pass. *)

let enc_phys p = -1 - p

(* ---- pair layers ----

   A layer is a flat record of encoded pairs per class, in scan order:
   the raw emission stream of the blocks scanned into it, within-block
   duplicates and all. [Igraph.add_edge]'s global first-occurrence dedup
   collapses them on replay, so storing the stream undeduplicated trades
   a little memory for a scan with no per-pair bookkeeping beyond the
   push. *)

type layer = {
  mutable lp_int : int array; (* flat encoded (a, b) pairs, scan order *)
  mutable ln_int : int;
  mutable lp_flt : int array;
  mutable ln_flt : int;
}

let fresh_layer () = { lp_int = [||]; ln_int = 0; lp_flt = [||]; ln_flt = 0 }

let clear_layer l =
  l.ln_int <- 0;
  l.ln_flt <- 0

let push layer cls a b =
  match cls with
  | Reg.Int_reg ->
    let cap = Array.length layer.lp_int in
    if (2 * layer.ln_int) + 2 > cap then begin
      let grown = Array.make (max 64 (2 * cap)) 0 in
      Array.blit layer.lp_int 0 grown 0 (2 * layer.ln_int);
      layer.lp_int <- grown
    end;
    Array.unsafe_set layer.lp_int (2 * layer.ln_int) a;
    Array.unsafe_set layer.lp_int ((2 * layer.ln_int) + 1) b;
    layer.ln_int <- layer.ln_int + 1
  | Reg.Flt_reg ->
    let cap = Array.length layer.lp_flt in
    if (2 * layer.ln_flt) + 2 > cap then begin
      let grown = Array.make (max 64 (2 * cap)) 0 in
      Array.blit layer.lp_flt 0 grown 0 (2 * layer.ln_flt);
      layer.lp_flt <- grown
    end;
    Array.unsafe_set layer.lp_flt (2 * layer.ln_flt) a;
    Array.unsafe_set layer.lp_flt ((2 * layer.ln_flt) + 1) b;
    layer.ln_flt <- layer.ln_flt + 1

(* The layer a build without an edge cache scans into: one per domain,
   since a build runs start to finish on the domain that called it, so
   two builds never share one. *)
let scan_layer = Domain.DLS.new_key fresh_layer

(* ---- the per-block edge cache ----

   For each CFG block, the cache records in a layer the encoded pair
   sequence the scan emitted there under the *identity* aliasing
   (coalescing round 0). An entry survives spill passes — renamed
   through [Webs.rebuild]'s old-to-new map by {!Edge_cache.remap}, with
   pairs touching a retired (spilled) web dropped, and the blocks that
   received spill code invalidated.

   Replay walks every block in block order and pushes the stored pairs
   through [Igraph.add_edge], whose global first-occurrence dedup then
   reproduces exactly the adjacency insertion order of a from-scratch
   scan (see the exactness argument at [build_graphs]). *)

module Edge_cache = struct
  type entry = {
    e_layer : layer;
    mutable valid : bool;
  }

  let fresh_entry () = { e_layer = fresh_layer (); valid = false }

  type t = {
    mutable entries : entry array;
    mutable cached_blocks : int; (* entries in use: the proc's block count *)
    seq_live : Bitset.t; (* the rescans' liveness walk scratch *)
    (* per-build counters, reset at each Build.build *)
    mutable hits : int; (* blocks replayed without a rescan *)
    mutable misses : int; (* blocks rescanned *)
    uid : int;
  }

  let create () =
    { entries = [||];
      cached_blocks = 0;
      seq_live = Bitset.create 0;
      hits = 0;
      misses = 0;
      uid = Footprint.fresh_uid () }

  (* Race-check hooks at block-slot granularity: one key per cached
     block, covering its entry's layer and validity flag together. *)
  let log_block_write t b =
    if !Race_log.on then
      Race_log.write (Footprint.K_edge_cache_block (t.uid, b))

  let log_block_read t b =
    if !Race_log.on then
      Race_log.read (Footprint.K_edge_cache_block (t.uid, b))

  let hits t = t.hits
  let misses t = t.misses
  let reset_stats t =
    t.hits <- 0;
    t.misses <- 0

  let invalidate_entry e = e.valid <- false

  let clear t =
    for b = 0 to t.cached_blocks - 1 do
      log_block_write t b;
      invalidate_entry t.entries.(b)
    done;
    t.cached_blocks <- 0

  (* Retarget at a procedure's block count. A size change means a
     different procedure (or a restructured one): nothing carries over. *)
  let prepare t ~n_blocks =
    if n_blocks <> t.cached_blocks then begin
      clear t;
      if Array.length t.entries < n_blocks then begin
        let old = t.entries in
        t.entries <-
          Array.init n_blocks (fun b ->
            if b < Array.length old then old.(b) else fresh_entry ())
      end;
      for b = 0 to n_blocks - 1 do
        log_block_write t b;
        invalidate_entry t.entries.(b)
      done;
      t.cached_blocks <- n_blocks
    end

  let invalidate_blocks t bs =
    List.iter
      (fun b ->
        if b >= 0 && b < t.cached_blocks then begin
          log_block_write t b;
          invalidate_entry t.entries.(b)
        end)
      bs

  (* Rename one layer's web endpoints through [old_to_new], dropping any
     pair with a retired endpoint, compacting in place. Physical-register
     endpoints (< 0) pass through unchanged. *)
  let remap_pairs pairs n ~old_to_new =
    let m = ref 0 in
    for p = 0 to n - 1 do
      let a = Array.unsafe_get pairs (2 * p)
      and b = Array.unsafe_get pairs ((2 * p) + 1) in
      (* physical endpoints (< 0) pass through — note phys reg 0 encodes
         to -1, so the retired test must only ever see web endpoints *)
      let a' = if a < 0 then a else Array.unsafe_get old_to_new a in
      let b' = if b < 0 then b else Array.unsafe_get old_to_new b in
      if (a < 0 || a' >= 0) && (b < 0 || b' >= 0) then begin
        Array.unsafe_set pairs (2 * !m) a';
        Array.unsafe_set pairs ((2 * !m) + 1) b';
        incr m
      end
    done;
    !m

  (* Cross-pass invalidation: the blocks that received spill code (the
     same dirty set the liveness update re-solved from) are rescanned;
     every other block's layer survives, renamed through the canonical
     renumbering [Webs.rebuild] produced. *)
  let remap t ~old_to_new ~dirty_blocks =
    invalidate_blocks t dirty_blocks;
    for b = 0 to t.cached_blocks - 1 do
      let e = t.entries.(b) in
      log_block_write t b;
      if e.valid then begin
        e.e_layer.ln_int <-
          remap_pairs e.e_layer.lp_int e.e_layer.ln_int ~old_to_new;
        e.e_layer.ln_flt <-
          remap_pairs e.e_layer.lp_flt e.e_layer.ln_flt ~old_to_new
      end
    done

  (* Test hook: make one valid base entry stale by appending an edge
     between two precolored nodes — a pair no scan ever stages — so a
     verified cache-backed build must raise [Divergence]. *)
  let poison t =
    let found = ref false in
    for b = 0 to t.cached_blocks - 1 do
      let e = t.entries.(b) in
      if (not !found) && e.valid then begin
        push e.e_layer Reg.Int_reg (enc_phys 0) (enc_phys 1);
        found := true
      end
    done;
    !found
end

(* Build the two class graphs for the current aliasing. [rep] is a
   snapshot of the alias representatives ([rep.(w) = Union_find.find w]),
   precomputed so the scan never touches the path-compressing union-find;
   [numbering] maps instructions to representatives through it; [live] is
   the liveness solution under that numbering; [moves] is the build's
   move table, which supplies each copy's webs for the source exclusion.

   The block scan stages, then replays: it pushes every block's
   interferences, in scan order, into a pair layer, and the layers are
   then streamed through [Igraph.add_edge] in block order. Staging beats
   emitting into the graphs mid-scan: the walk's working set (live sets,
   webs) and the graphs' matrices stop evicting each other. Without
   [cache] all blocks scan into this domain's scratch layer; the replayed
   stream is the scan's own, so the graphs are those direct emission
   would build.

   With [cache] (round 0 only, where [rep] is the identity) the scan is
   incremental: only blocks without a valid cache entry — the blocks
   that received spill code, or every block on a scratch pass — are
   rescanned, each into its own entry's layer; every block is then
   replayed in block order through [add_edge]. Exactness for clean
   blocks: a spill edit only renames or retires entries of their live
   sets, so the renamed image of a clean block's cached pairs is, pair
   for pair and in order, what a rescan would push. The surviving global
   first occurrences, and therefore adjacency insertion order (which
   coloring is sensitive to), match the from-scratch scan exactly;
   [RA_VERIFY] cross-checks this every build. *)
let build_graphs machine (proc : Proc.t) (cfg : Cfg.t) (webs : Webs.t)
    ~(moves : moves) ~(rep : int array) ~numbering ~(live : Liveness.t)
    ~scratch ~cache ~tele =
  let n_webs = Webs.n_webs webs in
  (* dense node numbering per class, representatives only *)
  let node_of_web = Array.make (max n_webs 1) (-1) in
  let k_int = Machine.regs machine Reg.Int_reg in
  let k_flt = Machine.regs machine Reg.Flt_reg in
  let rev_int = ref [] and rev_flt = ref [] in
  let n_int = ref 0 and n_flt = ref 0 in
  for w = 0 to n_webs - 1 do
    if rep.(w) = w then begin
      match cls_of_web webs w with
      | Reg.Int_reg ->
        node_of_web.(w) <- k_int + !n_int;
        rev_int := w :: !rev_int;
        incr n_int
      | Reg.Flt_reg ->
        node_of_web.(w) <- k_flt + !n_flt;
        rev_flt := w :: !rev_flt;
        incr n_flt
    end
  done;
  let web_of_node_int = Array.of_list (List.rev !rev_int) in
  let web_of_node_flt = Array.of_list (List.rev !rev_flt) in
  let int_graph, flt_graph =
    match scratch with
    | Some (ig, fg) ->
      Igraph.reset ig ~n_nodes:(k_int + !n_int) ~n_precolored:k_int;
      Igraph.reset fg ~n_nodes:(k_flt + !n_flt) ~n_precolored:k_flt;
      ig, fg
    | None ->
      Igraph.create ~n_nodes:(k_int + !n_int) ~n_precolored:k_int,
      Igraph.create ~n_nodes:(k_flt + !n_flt) ~n_precolored:k_flt
  in
  let graph_of = function
    | Reg.Int_reg -> int_graph
    | Reg.Flt_reg -> flt_graph
  in
  (* node id of an encoded endpoint *at scan time* (web endpoints are
     representatives of the aliasing being scanned) *)
  let node_of_enc x = if x >= 0 then node_of_web.(x) else -1 - x in
  (* Scan blocks [lo, hi] backward against [live], pushing every
     interference — encoded endpoints — into [layer] in deterministic
     scan order. [live_scratch], when given, carries the walk's live set
     in place of [live]'s own scratch. *)
  let scan_blocks layer ~live_scratch lo hi =
    let emit cls a b = push layer cls a b in
    let add_def_edges ~live_after def_rep ~excluding =
      let cls = cls_of_web webs def_rep in
      Bitset.iter
        (fun l ->
          if l <> def_rep && l <> excluding && cls_of_web webs l = cls then
            emit cls def_rep l)
        live_after
    in
    let add_clobber_edges ~ret_rep ~live_after =
      let clobber cls =
        let saves = Machine.caller_save machine cls in
        Bitset.iter
          (fun l ->
            if l <> ret_rep && cls_of_web webs l = cls then
              List.iter (fun p -> emit cls (enc_phys p) l) saves)
          live_after
      in
      clobber Reg.Int_reg;
      clobber Reg.Flt_reg
    in
    for b = lo to hi do
      Liveness.iter_block_backward ?scratch:live_scratch live b
        ~f:(fun i ~live_after ->
          iter_defs moves ~rep ~numbering i ~f:(add_def_edges ~live_after);
          match call_result webs proc.code.(i) ~rep i with
          | Some ret_rep -> add_clobber_edges ~ret_rep ~live_after
          | None -> ())
    done
  in
  let n_blocks = Cfg.n_blocks cfg in
  let replay_pairs graph pairs n =
    for p = 0 to n - 1 do
      Igraph.add_edge graph
        (node_of_enc (Array.unsafe_get pairs (2 * p)))
        (node_of_enc (Array.unsafe_get pairs ((2 * p) + 1)))
    done
  in
  let replay layer =
    replay_pairs int_graph layer.lp_int layer.ln_int;
    replay_pairs flt_graph layer.lp_flt layer.ln_flt
  in
  (match cache with
   | Some ec ->
     let open Edge_cache in
     prepare ec ~n_blocks;
     (* rescan whatever entries the context invalidated (all of them on
        a scratch pass) *)
     let rescan = ref [] in
     for b = n_blocks - 1 downto 0 do
       if not ec.entries.(b).valid then rescan := b :: !rescan
     done;
     let rescan = !rescan in
     let n_rescan = List.length rescan in
     ec.misses <- ec.misses + n_rescan;
     ec.hits <- ec.hits + (n_blocks - n_rescan);
     Telemetry.span tele Phase.Scan
       ~args:(fun () -> [ "proc", proc.name; "blocks", string_of_int n_rescan ])
       (fun () ->
         List.iter
           (fun b ->
             log_block_write ec b;
             let e = ec.entries.(b) in
             clear_layer e.e_layer;
             scan_blocks e.e_layer ~live_scratch:(Some ec.seq_live) b b;
             e.valid <- true)
           rescan);
     for b = 0 to n_blocks - 1 do
       log_block_read ec b;
       replay ec.entries.(b).e_layer
     done
   | None ->
     let layer = Domain.DLS.get scan_layer in
     clear_layer layer;
     Telemetry.span tele Phase.Scan
       ~args:(fun () -> [ "proc", proc.name; "blocks", string_of_int n_blocks ])
       (fun () ->
         scan_blocks layer ~live_scratch:None 0 (n_blocks - 1));
     replay layer);
  (* webs live into the entry block are defined simultaneously at entry *)
  let entry_in = Liveness.block_live_in live 0 in
  Bitset.iter
    (fun a ->
      Bitset.iter
        (fun b ->
          if a < b && cls_of_web webs a = cls_of_web webs b then
            Igraph.add_edge
              (graph_of (cls_of_web webs a))
              node_of_web.(a) node_of_web.(b))
        entry_in)
    entry_in;
  int_graph, flt_graph, node_of_web, web_of_node_int, web_of_node_flt

(* ---- the in-place round graph of a [Conservative] build ----

   A [Conservative] round needs more than its candidates' interference:
   Briggs' test reads their neighbors' degrees. Instead of rebuilding the
   class graphs every round, the build keeps one round graph per class
   and updates it in place: a square bit row per round-0 node (every web
   is its own representative at round 0, so every later representative
   owns a row) plus a degree per node. Adjacency order does not matter
   here: the graph that gets colored is built from scratch, once. *)
module Round_graph = struct
  type t = {
    width : int; (* words per row *)
    bits : int array; (* row [n] is [bits.(n * width) ..] *)
    deg : int array;
    np : int; (* precolored nodes *)
  }

  let bpw = Sys.int_size

  let mem t a b =
    t.bits.((a * t.width) + (b / bpw)) land (1 lsl (b mod bpw)) <> 0

  let flip_bit t a b =
    let i = (a * t.width) + (b / bpw) in
    t.bits.(i) <- t.bits.(i) lxor (1 lsl (b mod bpw))

  let add t a b =
    if a <> b && not (mem t a b) then begin
      flip_bit t a b;
      flip_bit t b a;
      t.deg.(a) <- t.deg.(a) + 1;
      t.deg.(b) <- t.deg.(b) + 1
    end

  let of_igraph g =
    let n = Igraph.n_nodes g in
    let width = (n + bpw - 1) / bpw in
    let t =
      { width;
        bits = Array.make (n * width) 0;
        deg = Array.make n 0;
        np = Igraph.n_precolored g }
    in
    for a = 0 to n - 1 do
      Igraph.iter_neighbors g a ~f:(fun b -> if a < b then add t a b)
    done;
    t

  (* [f] on every node of row [a] *)
  let iter_row t a ~f =
    for w = 0 to t.width - 1 do
      let x = ref t.bits.((a * t.width) + w) and n = ref (w * bpw) in
      while !x <> 0 do
        if !x land 1 <> 0 then f !n;
        x := !x lsr 1;
        incr n
      done
    done

  (* drop every edge of [a] *)
  let clear_row t a =
    iter_row t a ~f:(fun n ->
      flip_bit t n a;
      t.deg.(n) <- t.deg.(n) - 1);
    Array.fill t.bits (a * t.width) t.width 0;
    t.deg.(a) <- 0

  (* Test hook: add the edge if absent, remove it if present. *)
  let toggle t a b =
    if mem t a b then begin
      flip_bit t a b;
      flip_bit t b a;
      t.deg.(a) <- t.deg.(a) - 1;
      t.deg.(b) <- t.deg.(b) - 1
    end
    else add t a b

  (* Briggs' test for merging the non-adjacent nodes [a] and [b]: the
     merged node must have fewer than [k] significant neighbors, so the
     merge keeps a simplifiable graph simplifiable. A neighbor is
     significant when it is precolored or its degree after the merge is
     at least [k]; a neighbor of both loses one edge in the merge. The
     count is therefore
       |(Ra ∪ Rb) ∩ significant| − |Ra ∩ Rb ∩ {degree = k}|,
     taken word by word over the two rows. *)
  let briggs_ok t ~k a b =
    let ra = a * t.width and rb = b * t.width in
    let significant = ref 0 and w = ref 0 in
    while !w < t.width && !significant < k do
      let x = t.bits.(ra + !w) and y = t.bits.(rb + !w) in
      let union = ref (x lor y) and shared = ref (x land y) in
      let n = ref (!w * bpw) in
      while !union <> 0 do
        if !union land 1 <> 0 then
          if !n < t.np || t.deg.(!n) - (!shared land 1) >= k then
            incr significant;
        union := !union lsr 1;
        shared := !shared lsr 1;
        incr n
      done;
      incr w
    done;
    !significant < k

  let degree t a = t.deg.(a)
end

(* One coalescing scan over the moves in program order. [mergeable m wd
   ws] decides move [m], whose representatives [wd]/[ws] are candidates,
   against the aliasing the round entered with. *)
let find_coalescable (webs : Webs.t) alias (moves : moves) ~mergeable
    ~touched =
  let find = Union_find.find alias in
  let merged = ref 0 in
  (* The round's interference answers describe the aliasing we entered
     the scan with, so within one scan each representative may take part
     in at most one merge; moves touching an already-merged class wait
     for the next round. An untouched class therefore still has its
     round-start representative, which is what [mergeable] was told. *)
  Bitset.reset touched (max (Webs.n_webs webs) 1);
  for m = 0 to Array.length moves.mv_def - 1 do
    let wd = find moves.mv_def.(m) in
    let ws = find moves.mv_use.(m) in
    if
      (not (Bitset.mem touched wd))
      && (not (Bitset.mem touched ws))
      && candidate webs wd ws && mergeable m wd ws
    then begin
      ignore (Union_find.union alias wd ws);
      Bitset.add touched wd;
      Bitset.add touched ws;
      incr merged
    end
  done;
  !merged

(* Test hook for the per-round cross-checks: when set, every [Aggressive]
   round flips the query answer of its first candidate move and every
   [Conservative] round the round-graph edge between its two classes, so
   a verified coalescing build must raise [Divergence]. *)
let seeded_query_flip = ref false

(* The first move, in program order, that is a candidate under [rep]. *)
let first_candidate (webs : Webs.t) (moves : moves) ~(rep : int array) =
  let n_moves = Array.length moves.mv_def in
  let rec go m =
    if m = n_moves then None
    else if candidate webs rep.(moves.mv_def.(m)) rep.(moves.mv_use.(m)) then
      Some m
    else go (m + 1)
  in
  go 0

(* The interference question an [Aggressive] round asks, answered without
   building a graph. For every candidate move [m] (under the snapshot
   [rep]), [answer.(m)] is set exactly when [build_graphs], run on the
   same [rep] and [live], would make the move's two representatives
   adjacent. A web-web edge has only two origins there:

   - a definition of one endpoint with the other live after it, except
     when the definition is a copy whose (representative) source is the
     other endpoint — the move-source exclusion;
   - both endpoints live into the entry block.

   (Call clobbers only ever pair a physical register with a web.) So the
   query walks backward only the blocks holding a def site of a
   candidate class, and at each definition of one tests the partners of
   its candidate moves against the live-after set — the same live sets,
   definitions and exclusions [scan_blocks] emits from, restricted to
   the candidate pairs. Non-candidate entries stay [false].

   [carry], when given, is the previous round's answers and the marks of
   the classes its merges changed (both representatives of every merged
   pair). Interference between two classes depends only on their own
   liveness columns and sites, and the only other class a test consults
   — a copy source, for the exclusion — matters only when it is the
   partner itself. So a candidate neither of whose classes is marked
   keeps its previous answer, and only the moves touching a merged
   class are asked again: only the blocks holding a def site of
   an asked move's class are walked. *)
let query_interference ?carry (cfg : Cfg.t) (webs : Webs.t) (moves : moves)
    ~(rep : int array) ~numbering ~(live : Liveness.t) =
  let n_moves = Array.length moves.mv_def in
  let n_webs = Webs.n_webs webs in
  let answer = Array.make n_moves false in
  let asks a b =
    candidate webs a b
    &&
    match carry with
    | None -> true
    | Some (_, changed) -> changed.(a) || changed.(b)
  in
  (* each asked class's partners, as a CSR: the slots
     [start.(w) .. start.(w + 1) - 1] hold (partner, move) pairs *)
  let start = Array.make (n_webs + 1) 0 in
  let n_cand = ref 0 in
  for m = 0 to n_moves - 1 do
    let a = rep.(moves.mv_def.(m)) and b = rep.(moves.mv_use.(m)) in
    if asks a b then begin
      start.(a + 1) <- start.(a + 1) + 1;
      start.(b + 1) <- start.(b + 1) + 1;
      incr n_cand
    end
    else
      match carry with
      | Some (prev, _) when candidate webs a b -> answer.(m) <- prev.(m)
      | Some _ | None -> ()
  done;
  if !n_cand > 0 then begin
    for w = 0 to n_webs - 1 do
      start.(w + 1) <- start.(w + 1) + start.(w)
    done;
    let fill = Array.sub start 0 n_webs in
    let partner = Array.make (2 * !n_cand) 0 in
    let via = Array.make (2 * !n_cand) 0 in
    let push a b m =
      partner.(fill.(a)) <- b;
      via.(fill.(a)) <- m;
      fill.(a) <- fill.(a) + 1
    in
    let entry_in = Liveness.block_live_in live 0 in
    for m = 0 to n_moves - 1 do
      let a = rep.(moves.mv_def.(m)) and b = rep.(moves.mv_use.(m)) in
      if asks a b then begin
        push a b m;
        push b a m;
        if Bitset.mem entry_in a && Bitset.mem entry_in b then
          answer.(m) <- true
      end
    done;
    let has_partners w = start.(w + 1) > start.(w) in
    let walk = Array.make (Cfg.n_blocks cfg) false in
    for w = 0 to n_webs - 1 do
      if has_partners rep.(w) then
        List.iter
          (fun i -> walk.(cfg.Cfg.block_of_instr.(i)) <- true)
          (Webs.web webs w).Webs.def_sites
    done;
    let test_def ~live_after d ~excluding =
      for j = start.(d) to start.(d + 1) - 1 do
        let p = partner.(j) in
        if p <> excluding && Bitset.mem live_after p then
          answer.(via.(j)) <- true
      done
    in
    Array.iteri
      (fun b go ->
        if go then
          Liveness.iter_block_backward live b ~f:(fun i ~live_after ->
            iter_defs moves ~rep ~numbering i ~f:(test_def ~live_after)))
      walk
  end;
  if !seeded_query_flip then
    Option.iter
      (fun m -> answer.(m) <- not answer.(m))
      (first_candidate webs moves ~rep);
  answer

let build machine (proc : Proc.t) cfg ~webs ?(coalesce = true) ?coalesce_mode
    ?live0 ?scratch ?touched ?cache ?(verify = false)
    ?(tele = Telemetry.null) () : t =
  let mode =
    match coalesce_mode with
    | Some m -> m
    | None -> if coalesce then Aggressive else Off
  in
  let n_webs = Webs.n_webs webs in
  let alias = Union_find.create (max n_webs 1) in
  let base = Webs.numbering webs in
  (* Iteration 0 runs with the identity aliasing, where the representative
     numbering coincides with the plain web numbering — so a caller who
     already holds the web-granularity liveness (the allocation context,
     carrying it across spill passes via [Liveness.update]) can pass it as
     [live0] and skip the from-scratch solve. Later iterations refresh it:
     a round's merges change the liveness columns of the merged classes'
     representatives only, so [Liveness.refresh] recomputes just those. *)
  let base_live =
    match live0 with
    | Some l -> l
    | None ->
      Telemetry.span tele Phase.Liveness (fun () ->
        Liveness.compute ~code:proc.code ~cfg base)
  in
  let touched =
    match touched with Some b -> b | None -> Bitset.create 0
  in
  (* the cache serves a pass's round-0 scan, which an [Aggressive] build
     never runs: its merging rounds query, and it scans in the last one *)
  if mode = Aggressive && cache <> None then
    invalid_arg "Build.build: an Aggressive build takes no edge cache";
  (match cache with Some ec -> Edge_cache.reset_stats ec | None -> ());
  let moves = move_table proc webs in
  let rep_numbering rep =
    { Liveness.universe = n_webs;
      defs_of = (fun i -> rep_ids rep (base.Liveness.defs_of i));
      uses_of = (fun i -> rep_ids rep (base.Liveness.uses_of i)) }
  in
  (* The classes the previous round's merges changed — both
     representatives of every merged pair, the survivor and the absorbed
     one — marked in [changed_col], with each survivor's members chained
     through [member_head]/[member_next] (an absorbed representative has
     none). Every other class has the same members, hence the same
     sites and liveness column, as in the previous round. *)
  let changed_col = Array.make (max n_webs 1) false in
  let member_head = Array.make (max n_webs 1) (-1) in
  let member_next = Array.make (max n_webs 1) (-1) in
  let last_changed = ref [] in
  let changed_columns ~prev_rep ~rep =
    List.iter
      (fun c ->
        changed_col.(c) <- false;
        member_head.(c) <- -1)
      !last_changed;
    let changed = ref [] in
    let mark c =
      if not changed_col.(c) then begin
        changed_col.(c) <- true;
        changed := c :: !changed
      end
    in
    for w = 0 to n_webs - 1 do
      if prev_rep.(w) <> rep.(w) then begin
        mark prev_rep.(w);
        mark rep.(w)
      end
    done;
    for w = n_webs - 1 downto 0 do
      let r = rep.(w) in
      if changed_col.(r) then begin
        member_next.(w) <- member_head.(r);
        member_head.(r) <- w
      end
    done;
    last_changed := !changed;
    !changed
  in
  let class_sites c f =
    let w = ref member_head.(c) in
    while !w >= 0 do
      let web = Webs.web webs !w in
      List.iter (fun i -> f ~def:true i) web.Webs.def_sites;
      List.iter (fun i -> f ~def:false i) web.Webs.use_sites;
      w := member_next.(!w)
    done
  in
  let check_same_live ~refreshed ~reference =
    for b = 0 to Cfg.n_blocks cfg - 1 do
      if
        not
          (Bitset.equal
             (Liveness.block_live_in refreshed b)
             (Liveness.block_live_in reference b))
      then
        div "%s: refreshed live-in of block %d differs from a full solve"
          proc.name b;
      if
        not
          (Bitset.equal
             (Liveness.block_live_out refreshed b)
             (Liveness.block_live_out reference b))
      then
        div "%s: refreshed live-out of block %d differs from a full solve"
          proc.name b
    done
  in
  let check_same_graph name (gp : Igraph.t) (gs : Igraph.t) =
    if Igraph.n_nodes gp <> Igraph.n_nodes gs then
      div "%s: %d nodes against %d in the reference scan" name
        (Igraph.n_nodes gp) (Igraph.n_nodes gs);
    if Igraph.n_edges gp <> Igraph.n_edges gs then
      div "%s: %d edges against %d in the reference scan" name
        (Igraph.n_edges gp) (Igraph.n_edges gs);
    for n = 0 to Igraph.n_nodes gp - 1 do
      (* adjacency must match as *lists*: coloring is sensitive to
         neighbor insertion order, not just the edge set *)
      if Igraph.neighbors gp n <> Igraph.neighbors gs n then
        div "%s: adjacency of node %d diverges" name n
    done
  in
  let reference_graphs ~rep ~numbering ~live =
    build_graphs machine proc cfg webs ~moves ~rep ~numbering ~live
      ~scratch:None ~cache:None ~tele:Telemetry.null
  in
  (* every candidate's query answer against the reference graph's edge *)
  let check_query ~rep ~numbering ~live answer =
    let ig, fg, now, _, _ = reference_graphs ~rep ~numbering ~live in
    Array.iteri
      (fun m got ->
        let a = rep.(moves.mv_def.(m)) and b = rep.(moves.mv_use.(m)) in
        if candidate webs a b then begin
          let g =
            match cls_of_web webs a with
            | Reg.Int_reg -> ig
            | Reg.Flt_reg -> fg
          in
          let want = Igraph.interferes g now.(a) now.(b) in
          if got <> want then
            div "%s: interference query for the move at instruction %d \
                 answers %b, the reference graph %b"
              proc.name moves.mv_instr.(m) got want
        end)
      answer
  in
  (* Bring the round graphs [(rig, rfg, node0)] — [node0] the round-0
     node of every web — from the previous round's aliasing to [rep]'s.
     Only edges touching a [changed] class can differ: interference
     between two unchanged classes depends only on their own sites and
     liveness columns, and a copy source matters only when it is the
     partner itself (the separability [query_interference]'s carry rests
     on). So the rows of every changed class — survivor and absorbed —
     are cleared, and the survivors' rows re-derived with [scan_blocks]'
     rules, walking only the blocks where a survivor is live out or has a
     site: nowhere else is it live after an instruction. *)
  let survivors = Bitset.create n_webs in
  let update_round_graphs (rig, rfg, node0) ~rep ~numbering ~live changed =
    let rg_of w =
      match cls_of_web webs w with Reg.Int_reg -> rig | Reg.Flt_reg -> rfg
    in
    List.iter (fun c -> Round_graph.clear_row (rg_of c) node0.(c)) changed;
    Bitset.clear survivors;
    List.iter (fun c -> if rep.(c) = c then Bitset.add survivors c) changed;
    let n_blocks = Cfg.n_blocks cfg in
    let walk = Array.make n_blocks false in
    Bitset.iter
      (fun c ->
        class_sites c (fun ~def:_ i ->
          walk.(cfg.Cfg.block_of_instr.(i)) <- true))
      survivors;
    let edge a b = Round_graph.add (rg_of a) node0.(a) node0.(b) in
    (* a survivor's definition interferes with everything live after it;
       any other definition only with the survivors live after it *)
    let def_edges ~live_after d ~excluding =
      let cls = cls_of_web webs d in
      let emit l =
        if l <> d && l <> excluding && cls_of_web webs l = cls then edge d l
      in
      if Bitset.mem survivors d then Bitset.iter emit live_after
      else Bitset.iter_inter emit live_after survivors
    in
    let clobber_edges ~live_after ret_rep =
      Bitset.iter_inter
        (fun l ->
          if l <> ret_rep then
            List.iter
              (fun p -> Round_graph.add (rg_of l) p node0.(l))
              (Machine.caller_save machine (cls_of_web webs l)))
        live_after survivors
    in
    for b = 0 to n_blocks - 1 do
      if walk.(b) || Bitset.intersects survivors (Liveness.block_live_out live b)
      then
        Liveness.iter_block_backward live b ~f:(fun i ~live_after ->
          iter_defs moves ~rep ~numbering i ~f:(def_edges ~live_after);
          Option.iter (clobber_edges ~live_after)
            (call_result webs proc.code.(i) ~rep i))
    done;
    let entry_in = Liveness.block_live_in live 0 in
    Bitset.iter_inter
      (fun s ->
        Bitset.iter
          (fun l ->
            if l <> s && cls_of_web webs l = cls_of_web webs s then edge s l)
          entry_in)
      entry_in survivors
  in
  (* the round graphs hold exactly the edges of [ig]/[fg], graphs built
     for [rep]'s aliasing with [now] their node of each representative;
     an absorbed class's row is empty *)
  let check_round_graphs (rig, rfg, node0) ~rep (ig, fg, now, wni, wnf) =
    for w = 0 to n_webs - 1 do
      let rg, g, web_of_node =
        match cls_of_web webs w with
        | Reg.Int_reg -> rig, ig, wni
        | Reg.Flt_reg -> rfg, fg, wnf
      in
      let n0 = node0.(w) in
      if rep.(w) <> w then begin
        if Round_graph.degree rg n0 <> 0 then
          div "%s: the round graph keeps %d edges of absorbed web %d"
            proc.name (Round_graph.degree rg n0) w
      end
      else begin
        let n = now.(w) and np = Igraph.n_precolored g in
        if Round_graph.degree rg n0 <> Igraph.degree g n then
          div "%s: web %d has degree %d in the round graph, %d in the \
               reference graph"
            proc.name w (Round_graph.degree rg n0) (Igraph.degree g n);
        Igraph.iter_neighbors g n ~f:(fun v ->
          let v0 = if v < np then v else node0.(web_of_node.(v - np)) in
          if not (Round_graph.mem rg n0 v0) then
            div "%s: the round graph misses the edge of web %d to node %d"
              proc.name w v)
      end
    done
  in
  let rec fixpoint total ~first ~rounds ~prev_rep ~prev_live ~prev_answer
      ~round_graphs =
    let rep = Array.init (max n_webs 1) (Union_find.find alias) in
    let numbering = rep_numbering rep in
    let live, changed =
      if first then base_live, []
      else begin
        let changed = changed_columns ~prev_rep ~rep in
        let refreshed =
          Telemetry.span tele Phase.Liveness (fun () ->
            Liveness.refresh ~old:prev_live ~cfg numbering ~changed
              ~sites:class_sites)
        in
        if verify then
          Telemetry.span tele Phase.Verify (fun () ->
            check_same_live ~refreshed
              ~reference:(Liveness.compute ~code:proc.code ~cfg numbering));
        refreshed, changed
      end
    in
    (* this round's graphs — the edge cache serves round 0 only —
       cross-checked under [verify] when they came from the cache *)
    let graphs () =
      let cache = if first then cache else None in
      let ((ig, fg, _, _, _) as built) =
        build_graphs machine proc cfg webs ~moves ~rep ~numbering ~live
          ~scratch ~cache ~tele
      in
      if verify && cache <> None then
        Telemetry.span tele Phase.Verify (fun () ->
          (* reference scan into fresh graphs, uncached; the
             cache-backed result must be indistinguishable from it, down
             to adjacency order. The reference scan reports nowhere — its
             spans would pollute the Scan totals. *)
          let ig_s, fg_s, _, _, _ =
            reference_graphs ~rep ~numbering ~live
          in
          check_same_graph (proc.name ^ ": int graph") ig ig_s;
          check_same_graph (proc.name ^ ": flt graph") fg fg_s);
      built
    in
    let finish (ig, fg, now, wni, wnf) = ig, fg, now, wni, wnf, total, rounds in
    let next ?answer ?round_graphs merged =
      fixpoint (total + merged) ~first:false ~rounds:(rounds + 1)
        ~prev_rep:rep ~prev_live:live ~prev_answer:answer ~round_graphs
    in
    match mode with
    | Off -> finish (graphs ())
    | Conservative when first && first_candidate webs moves ~rep = None ->
      finish (graphs ())
    | Conservative ->
      (* the same fixpoint as [Aggressive], gated on Briggs' test as well:
         the pre-pass only takes the merges the worklist drive could never
         regret; the moves it leaves behind become the staged IRC worklist
         below. Round 0 loads the round graphs from its scan; a merging
         round updates them in place, and the graph is scanned again only
         in the round that merges nothing. *)
      let round0 = if first then Some (graphs ()) else None in
      let ((rig, rfg, node0) as rgs) =
        match round0, round_graphs with
        | Some (ig, fg, now, _, _), _ ->
          Round_graph.of_igraph ig, Round_graph.of_igraph fg, now
        | None, Some rgs ->
          Telemetry.span tele Phase.Scan
            ~args:(fun () -> [ "proc", proc.name; "kind", "round" ])
            (fun () ->
              update_round_graphs rgs ~rep ~numbering ~live changed);
          rgs
        | None, None -> invalid_arg "Build.build: a round without a graph"
      in
      let rg_of w =
        match cls_of_web webs w with Reg.Int_reg -> rig | Reg.Flt_reg -> rfg
      in
      if !seeded_query_flip then
        Option.iter
          (fun m ->
            let a = rep.(moves.mv_def.(m)) and b = rep.(moves.mv_use.(m)) in
            Round_graph.toggle (rg_of a) node0.(a) node0.(b))
          (first_candidate webs moves ~rep);
      if verify then
        Telemetry.span tele Phase.Verify (fun () ->
          check_round_graphs rgs ~rep
            (match round0 with
             | Some built -> built
             | None -> reference_graphs ~rep ~numbering ~live));
      let mergeable _ wd ws =
        let rg = rg_of wd and a = node0.(wd) and b = node0.(ws) in
        (not (Round_graph.mem rg a b))
        && Round_graph.briggs_ok rg
             ~k:(Machine.regs machine (cls_of_web webs wd))
             a b
      in
      let merged =
        Telemetry.span tele Phase.Coalesce (fun () ->
          find_coalescable webs alias moves ~mergeable ~touched)
      in
      if merged > 0 then next ~round_graphs:rgs merged
      else
        finish (match round0 with Some built -> built | None -> graphs ())
    | Aggressive ->
      (* a merging round only needs its candidate moves' interference:
         query those pairs, and build the graph once, in the round that
         merges nothing *)
      let answer =
        Telemetry.span tele Phase.Scan
          ~args:(fun () -> [ "proc", proc.name; "kind", "query" ])
          (fun () ->
            let carry =
              Option.map (fun prev -> prev, changed_col) prev_answer
            in
            query_interference ?carry cfg webs moves ~rep ~numbering ~live)
      in
      if verify then
        Telemetry.span tele Phase.Verify (fun () ->
          check_query ~rep ~numbering ~live answer);
      let merged =
        Telemetry.span tele Phase.Coalesce (fun () ->
          find_coalescable webs alias moves
            ~mergeable:(fun m _ _ -> not answer.(m))
            ~touched)
      in
      if merged = 0 then finish (graphs ()) else next ~answer merged
  in
  let int_graph, flt_graph, node_of_web, web_of_node_int, web_of_node_flt,
      moves_coalesced, rounds =
    fixpoint 0 ~first:true ~rounds:1 ~prev_rep:[||] ~prev_live:base_live
      ~prev_answer:None ~round_graphs:None
  in
  (* The distinct move pairs still live under the final aliasing, as
     node-id pairs per class. [Conservative] *stages* them — they become
     the IRC worklist, coalescing deferred to the Simplify-interleaved
     conservative tests — and every staged pair is deduplicated on its
     normalized rep pair, with spill-temp endpoints excluded exactly as
     the aggressive scan excludes them. For [Aggressive] the same scan
     only feeds the [coalesce.moves_remaining] counter (what the
     fixpoint left behind), making the two paths comparable in traces. *)
  let stage_remaining_moves () =
    let find = Union_find.find alias in
    let seen = Hashtbl.create 64 in
    let rev_int = ref [] and rev_flt = ref [] in
    for m = 0 to Array.length moves.mv_def - 1 do
      let wd = find moves.mv_def.(m) and ws = find moves.mv_use.(m) in
      if candidate webs wd ws then begin
        let key = if wd < ws then (wd, ws) else (ws, wd) in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          match cls_of_web webs wd with
          | Reg.Int_reg ->
            rev_int := (node_of_web.(wd), node_of_web.(ws)) :: !rev_int
          | Reg.Flt_reg ->
            rev_flt := (node_of_web.(wd), node_of_web.(ws)) :: !rev_flt
        end
      end
    done;
    Array.of_list (List.rev !rev_int), Array.of_list (List.rev !rev_flt)
  in
  let moves_int, moves_flt =
    match mode with
    | Conservative -> stage_remaining_moves ()
    | Aggressive | Off -> [||], [||]
  in
  (match mode with
   | Off -> ()
   | Conservative ->
     Telemetry.counter tele "coalesce.rounds" rounds;
     Telemetry.counter tele "coalesce.moves_remaining"
       (Array.length moves_int + Array.length moves_flt)
   | Aggressive ->
     if Telemetry.enabled tele then begin
       (* the counting scan is only worth running when someone listens *)
       let mi, mf = stage_remaining_moves () in
       Telemetry.counter tele "coalesce.rounds" rounds;
       Telemetry.counter tele "coalesce.moves_remaining"
         (Array.length mi + Array.length mf)
     end);
  let cache_hits, cache_misses =
    match cache with
    | Some ec -> Edge_cache.hits ec, Edge_cache.misses ec
    | None -> 0, 0
  in
  { webs; alias; int_graph; flt_graph; node_of_web;
    web_of_node_int; web_of_node_flt; moves_coalesced; base_live;
    rounds; cache_hits; cache_misses; moves_int; moves_flt }

let graph_of_class t = function
  | Reg.Int_reg -> t.int_graph
  | Reg.Flt_reg -> t.flt_graph

let web_of_node t cls node =
  let g = graph_of_class t cls in
  let k = Igraph.n_precolored g in
  if node < k then invalid_arg "Build.web_of_node: precolored node";
  match cls with
  | Reg.Int_reg -> t.web_of_node_int.(node - k)
  | Reg.Flt_reg -> t.web_of_node_flt.(node - k)

let node_of t w = t.node_of_web.(Union_find.find t.alias w)

let rep_costs ?(base = Spill_costs.default_base) t proc =
  Spill_costs.rep_costs ~base proc t.webs ~alias:t.alias

let node_costs ?(base = Spill_costs.default_base) ?rep_costs:shared t proc cls
    =
  let g = graph_of_class t cls in
  let k = Igraph.n_precolored g in
  let rep_costs =
    match shared with
    | Some c -> c
    | None -> Spill_costs.rep_costs ~base proc t.webs ~alias:t.alias
  in
  Array.init (Igraph.n_nodes g) (fun n ->
    if n < k then infinity
    else rep_costs.(web_of_node t cls n))
