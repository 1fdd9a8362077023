(* Outer-layer spans and their merge with the allocator's own sink.

   The allocator names its spans from the closed [Ra_support.Phase.t], so
   the layers the benchmark calls into from outside (parse, typecheck,
   codegen, opt, the allocation call) have no phase of their own: the
   benchmark records them here and puts both kinds on one timeline. *)

module Telemetry = Ra_support.Telemetry

type span = {
  name : string;
  op : int; (* the op the span belongs to *)
  parent : string; (* "" for an op's root span *)
  domain : int;
  t0 : float; (* absolute seconds, Unix.gettimeofday *)
  t1 : float;
}

(* A sink's event times count from the sink's creation; [epoch] is that
   instant on the benchmark's clock. *)
let of_sink ~op ~epoch events =
  List.filter_map
    (fun (e : Telemetry.event) ->
      match e.kind with
      | Telemetry.Span ->
        let t0 = epoch +. (e.start_us *. 1e-6) in
        Some
          { name = e.name; op; parent = ""; domain = e.domain; t0;
            t1 = t0 +. (e.dur_us *. 1e-6) }
      | Telemetry.Instant | Telemetry.Counter -> None)
    events

let overlap a b = Float.max 0.0 (Float.min a.t1 b.t1 -. Float.max a.t0 b.t0)

type nested = {
  span : span;
  mutable covered : float; (* by the spans directly inside it *)
  mutable leaf : bool;
  mutable root : bool;
}

(* Nest the spans of one clock: on one domain, every span is a call on
   that domain's stack, so a span lies inside the latest one still open
   when it starts. *)
let nest spans =
  let a =
    Array.of_list
      (List.map (fun span -> { span; covered = 0.0; leaf = true; root = true }) spans)
  in
  Array.sort
    (fun x y ->
      match Int.compare x.span.domain y.span.domain with
      | 0 ->
        (match Float.compare x.span.t0 y.span.t0 with
         | 0 -> Float.compare y.span.t1 x.span.t1
         | c -> c)
      | c -> c)
    a;
  let stack = ref [] in
  Array.iter
    (fun n ->
      let rec pop () =
        match !stack with
        | p :: rest when p.span.domain <> n.span.domain || p.span.t1 <= n.span.t0 ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
       | p :: _ ->
         p.covered <- p.covered +. overlap n.span p.span;
         p.leaf <- false;
         n.root <- false
       | [] -> ());
      stack := n :: !stack)
    a;
  Array.to_list a

(* [self_times ~outer ~inner] is each span's name with its self time:
   its duration minus the part that spans inside it on the same domain
   cover. [outer] are the benchmark's spans, [inner] the sink's; the two
   clocks may disagree by a microsecond, so each set is nested on its own
   and the sink's top-level spans are charged only to the benchmark's
   innermost spans. *)
let self_times ~outer ~inner =
  let inner = nest inner in
  let roots = List.filter (fun n -> n.root) inner in
  let self n covered = n.span.name, Float.max 0.0 (n.span.t1 -. n.span.t0 -. covered) in
  List.map (fun n -> self n n.covered) inner
  @ List.map
      (fun n ->
        if n.leaf then
          self n
            (List.fold_left
               (fun c r -> if r.span.domain = n.span.domain then c +. overlap r.span n.span else c)
               n.covered roots)
        else self n n.covered)
      (nest outer)

(* ---- Chrome trace_event output ---- *)

let us_since origin t = (t -. origin) *. 1e6

let chrome_of_span ~origin s =
  Printf.sprintf
    "{\"name\": \"%s\", \"cat\": \"bench\", \"ph\": \"X\", \"ts\": %.3f, \
     \"dur\": %.3f, \"pid\": 0, \"tid\": %d, \"args\": {\"op\": \"%d\", \
     \"parent\": \"%s\"}}"
    s.name (us_since origin s.t0)
    ((s.t1 -. s.t0) *. 1e6)
    s.domain s.op s.parent

(* The sink's own events, moved onto the benchmark's timeline. *)
let chrome_of_sink_event ~origin ~epoch (e : Telemetry.event) =
  Telemetry.chrome_of_event
    { e with start_us = e.start_us +. us_since origin epoch }

let write_chrome path lines =
  let oc = open_out path in
  output_string oc "[";
  List.iteri
    (fun i line ->
      if i > 0 then output_string oc ",";
      output_string oc "\n";
      output_string oc line)
    lines;
  output_string oc "\n]\n";
  close_out oc
