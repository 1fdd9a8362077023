(* Tests for the structured telemetry layer (Ra_support.Telemetry):
   span nesting and depth accounting, counter totals, the disabled
   sink's no-op guarantee, serialization goldens, domain tagging, and
   the agreement between the pipeline's telemetry and its pass
   records. *)

open Ra_core
open Ra_support

let ev_name (e : Telemetry.event) = e.Telemetry.name

(* ---- disabled sink ---- *)

let disabled_is_noop () =
  let t = Telemetry.null in
  Alcotest.(check bool) "disabled" false (Telemetry.enabled t);
  let x =
    Telemetry.span t Phase.Build (fun () ->
      Telemetry.counter t "n" 3;
      Telemetry.instant t Phase.Lint;
      41 + 1)
  in
  Alcotest.(check int) "result passes through" 42 x;
  Alcotest.(check int) "no counters" 0 (Telemetry.counter_total t "n");
  Alcotest.(check int) "no events" 0 (List.length (Telemetry.events t));
  (* a disabled span still feeds a timer *)
  let tm = Timer.create () in
  ignore (Telemetry.span t ~timer:tm Phase.Color (fun () -> ()));
  Alcotest.(check bool) "timer phase recorded" true
    (List.mem_assoc Phase.Color (Timer.phases tm))

(* ---- span nesting ---- *)

let spans_nest () =
  let t = Telemetry.create () in
  Telemetry.span t Phase.Alloc (fun () ->
    Telemetry.span t Phase.Pass (fun () ->
      Telemetry.span t Phase.Build (fun () -> ());
      Telemetry.span t Phase.Color (fun () -> ())));
  (* spans are emitted at span end: children before parents *)
  Alcotest.(check (list string)) "emission order"
    [ "build"; "color"; "pass"; "alloc" ]
    (List.map ev_name (Telemetry.events t));
  let depth_of name =
    let e =
      List.find (fun e -> ev_name e = name) (Telemetry.events t)
    in
    e.Telemetry.depth
  in
  Alcotest.(check int) "alloc at depth 0" 0 (depth_of "alloc");
  Alcotest.(check int) "pass at depth 1" 1 (depth_of "pass");
  Alcotest.(check int) "build at depth 2" 2 (depth_of "build");
  Alcotest.(check int) "color at depth 2" 2 (depth_of "color");
  (* every child's wall extent lies within its parent's *)
  let span name =
    List.find (fun e -> ev_name e = name) (Telemetry.events t)
  in
  let within child parent =
    let c = span child and p = span parent in
    c.Telemetry.start_us >= p.Telemetry.start_us
    && c.Telemetry.start_us +. c.Telemetry.dur_us
       <= p.Telemetry.start_us +. p.Telemetry.dur_us +. 1e-6
  in
  Alcotest.(check bool) "build within pass" true (within "build" "pass");
  Alcotest.(check bool) "pass within alloc" true (within "pass" "alloc")

let span_survives_exceptions () =
  let t = Telemetry.create () in
  (try
     Telemetry.span t Phase.Build (fun () ->
       Telemetry.span t Phase.Scan (fun () -> raise Exit))
   with Exit -> ());
  Alcotest.(check (list string)) "both spans ended" [ "scan"; "build" ]
    (List.map ev_name (Telemetry.events t));
  (* depth stack unwound: a new span is back at depth 0 *)
  Telemetry.span t Phase.Color (fun () -> ());
  let last = List.nth (Telemetry.events t) 2 in
  Alcotest.(check int) "depth recovered" 0 last.Telemetry.depth

(* ---- counters and subscribers ---- *)

let counters_accumulate () =
  let t = Telemetry.create () in
  Telemetry.counter t "alloc.passes" 1;
  Telemetry.counter t "alloc.passes" 2;
  Telemetry.counter t "edge_cache.hits" 7;
  Alcotest.(check int) "running total" 3
    (Telemetry.counter_total t "alloc.passes");
  Alcotest.(check int) "independent names" 7
    (Telemetry.counter_total t "edge_cache.hits");
  Alcotest.(check int) "unknown name" 0 (Telemetry.counter_total t "nope");
  Alcotest.(check (list (pair string int))) "totals sorted by name"
    [ "alloc.passes", 3; "edge_cache.hits", 7 ]
    (Telemetry.counter_totals t);
  (* counter events carry the post-bump running total *)
  let values =
    List.filter_map
      (fun (e : Telemetry.event) ->
        if ev_name e = "alloc.passes" then Some e.Telemetry.value else None)
      (Telemetry.events t)
  in
  Alcotest.(check (list int)) "event values are running totals" [ 1; 3 ]
    values

let subscribers_see_events () =
  let t = Telemetry.create () in
  let seen = ref [] in
  Telemetry.subscribe t (fun e -> seen := ev_name e :: !seen);
  Telemetry.span t Phase.Build (fun () -> Telemetry.counter t "c" 1);
  Alcotest.(check (list string)) "fan-out in emission order"
    [ "c"; "build" ] (List.rev !seen)

(* ---- serialization goldens ---- *)

let golden_event =
  { Telemetry.kind = Telemetry.Span;
    name = "build";
    start_us = 12.5;
    dur_us = 100.25;
    domain = 3;
    depth = 1;
    value = 0;
    args = [ "proc", "svd"; "note", "a\"b" ] }

let jsonl_golden () =
  Alcotest.(check string) "jsonl line"
    "{\"kind\": \"span\", \"name\": \"build\", \"ts_us\": 12.500, \
     \"dur_us\": 100.250, \"domain\": 3, \"depth\": 1, \"value\": 0, \
     \"args\": {\"proc\": \"svd\", \"note\": \"a\\\"b\"}}"
    (Telemetry.jsonl_of_event golden_event);
  Alcotest.(check string) "chrome complete event"
    "{\"name\": \"build\", \"cat\": \"ra\", \"ph\": \"X\", \"ts\": 12.500, \
     \"dur\": 100.250, \"pid\": 0, \"tid\": 3, \
     \"args\": {\"proc\": \"svd\", \"note\": \"a\\\"b\"}}"
    (Telemetry.chrome_of_event golden_event)

let writers_produce_valid_json () =
  let t = Telemetry.create () in
  Telemetry.span t Phase.Alloc (fun () -> Telemetry.counter t "k" 1);
  Telemetry.instant t Phase.Lint;
  let render write =
    let path = Filename.temp_file "tele" ".json" in
    let oc = open_out path in
    write t oc;
    close_out oc;
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    s
  in
  let chrome = render Telemetry.write_chrome in
  Alcotest.(check bool) "chrome output is a JSON array" true
    (String.length chrome > 2 && chrome.[0] = '[');
  Alcotest.(check bool) "chrome output closes the array" true
    (String.contains chrome ']');
  let jsonl = render Telemetry.write_jsonl in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)
  in
  Alcotest.(check int) "one JSONL line per event" 3 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "line is an object" true
        (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines

(* ---- domain tagging ---- *)

let spans_are_domain_tagged () =
  let t = Telemetry.create () in
  Telemetry.span t Phase.Alloc (fun () -> ());
  let d =
    Domain.spawn (fun () ->
      Telemetry.span t Phase.Scan (fun () -> ());
      (Domain.self () :> int))
  in
  let worker_id = Domain.join d in
  let find name = List.find (fun e -> ev_name e = name) (Telemetry.events t) in
  Alcotest.(check int) "worker span carries the worker's domain id"
    worker_id (find "scan").Telemetry.domain;
  Alcotest.(check bool) "distinct from the main domain" true
    ((find "scan").Telemetry.domain <> (find "alloc").Telemetry.domain);
  (* each domain nests independently: the worker span started fresh *)
  Alcotest.(check int) "worker depth independent of main" 0
    (find "scan").Telemetry.depth

(* ---- the pipeline reports into the tree it promises ---- *)

let pipeline_telemetry_agrees_with_pass_records () =
  let machine =
    { (Machine.with_int_regs Machine.rt_pc 3) with Machine.flt_regs = 8 }
  in
  let procs = Ra_ir.Codegen.compile_source Test_context.spilling_src in
  Ra_opt.Opt.optimize_all procs;
  let proc = List.hd procs in
  let tele = Telemetry.create () in
  let ctx = Context.create ~tele machine in
  let r = Allocator.allocate ~context:ctx machine Heuristic.Briggs proc in
  let n_passes = List.length r.Allocator.passes in
  Alcotest.(check bool) "multi-pass (the test needs spilling)" true
    (n_passes > 1);
  (* the pipeline's counters equal the pass-record sums exactly *)
  Alcotest.(check int) "alloc.procs" 1 (Telemetry.counter_total tele "alloc.procs");
  Alcotest.(check int) "alloc.passes" n_passes
    (Telemetry.counter_total tele "alloc.passes");
  Alcotest.(check int) "alloc.spilled" r.Allocator.total_spilled
    (Telemetry.counter_total tele "alloc.spilled");
  Alcotest.(check int) "alloc.moves_removed" r.Allocator.moves_removed
    (Telemetry.counter_total tele "alloc.moves_removed");
  Alcotest.(check int) "edge_cache.hits"
    (List.fold_left
       (fun acc (p : Allocator.pass_record) -> acc + p.Allocator.cache_hits)
       0 r.Allocator.passes)
    (Telemetry.counter_total tele "edge_cache.hits");
  Alcotest.(check int) "edge_cache.misses"
    (List.fold_left
       (fun acc (p : Allocator.pass_record) -> acc + p.Allocator.cache_misses)
       0 r.Allocator.passes)
    (Telemetry.counter_total tele "edge_cache.misses");
  (* the span tree: one alloc root, one pass span per pass record, and
     every stage phase appears under it *)
  let count name =
    List.length
      (List.filter
         (fun (e : Telemetry.event) ->
           e.Telemetry.kind = Telemetry.Span && ev_name e = name)
         (Telemetry.events tele))
  in
  Alcotest.(check int) "one alloc span" 1 (count "alloc");
  Alcotest.(check int) "one pass span per pass" n_passes (count "pass");
  List.iter
    (fun phase ->
      Alcotest.(check bool)
        (Printf.sprintf "phase %S traced" (Phase.name phase))
        true
        (count (Phase.name phase) > 0))
    [ Phase.Build; Phase.Simplify; Phase.Color; Phase.Scan; Phase.Liveness;
      Phase.Spill_elect; Phase.Spill_insert; Phase.Rewrite ];
  (* wall-clock spans and the CPU pass records measure the same tree: on
     this single-threaded run each phase's total span time must be at
     least the recorded CPU time, within generous tolerance *)
  let span_total name =
    List.fold_left
      (fun acc (e : Telemetry.event) ->
        if e.Telemetry.kind = Telemetry.Span && ev_name e = name then
          acc +. e.Telemetry.dur_us
        else acc)
      0.0 (Telemetry.events tele)
    /. 1e6
  in
  let cpu field =
    List.fold_left
      (fun acc p -> acc +. field p)
      0.0 r.Allocator.passes
  in
  List.iter
    (fun (name, field) ->
      let wall = span_total name and cpu_s = cpu field in
      Alcotest.(check bool)
        (Printf.sprintf "%s: wall %.6fs covers cpu %.6fs" name wall cpu_s)
        true
        (wall +. 0.05 >= cpu_s))
    [ "build", (fun (p : Allocator.pass_record) -> p.Allocator.build_time);
      "simplify", (fun p -> p.Allocator.simplify_time);
      "color", (fun p -> p.Allocator.color_time);
      "spill-insert", (fun p -> p.Allocator.spill_time) ]

let suites =
  [ ( "support.telemetry",
      [ Alcotest.test_case "disabled sink is a no-op" `Quick disabled_is_noop;
        Alcotest.test_case "spans nest with depths" `Quick spans_nest;
        Alcotest.test_case "spans survive exceptions" `Quick
          span_survives_exceptions;
        Alcotest.test_case "counters accumulate" `Quick counters_accumulate;
        Alcotest.test_case "subscribers see every event" `Quick
          subscribers_see_events;
        Alcotest.test_case "jsonl/chrome goldens" `Quick jsonl_golden;
        Alcotest.test_case "writers produce valid JSON" `Quick
          writers_produce_valid_json;
        Alcotest.test_case "spans are domain-tagged" `Quick
          spans_are_domain_tagged;
        Alcotest.test_case "pipeline telemetry matches pass records" `Quick
          pipeline_telemetry_agrees_with_pass_records ] ) ]
