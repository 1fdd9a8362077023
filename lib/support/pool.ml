(* A batch-queue domain pool.

   Invariants (all fields below guarded by the pool mutex):
   - a batch sits in [queue] while [next < n]; drained batches are
     filtered out lazily by whoever scans the queue;
   - [active] counts iterations currently executing; a batch is finished
     when [next >= n && active = 0], at which point [finished] is
     broadcast for the submitter;
   - on the first exception, [failed] records it and [next] jumps to [n]
     so no further iteration of that batch starts.

   The submitter of a batch helps drain *its own* batch before waiting.
   That makes nested submission safe: a task that submits a batch drains
   it itself even if every worker is parked on an outer batch, so
   progress is guaranteed by induction on nesting depth. The queue is
   LIFO so workers that do pick up extra work prefer the innermost
   (most-blocking) batch.

   For the dynamic race detector ([Ra_check.Race]) the pool logs its
   queue push/pop and barrier transitions into [Race_log] as the
   happens-before synchronization edges. Off by default, that costs one
   load per batch. *)

type batch = {
  run_task : int -> unit;
  n : int;
  mutable next : int;
  mutable active : int;
  mutable failed : (exn * Printexc.raw_backtrace) option;
  finished : Condition.t;
  race_batch : int; (* Race_log batch id; -1 when not logging *)
  submitted_at : float; (* Unix.gettimeofday at submit; 0. when no tele *)
}

type t = {
  mutex : Mutex.t;
  wake : Condition.t;
  mutable queue : batch list;
  mutable closed : bool;
  mutable domains : unit Domain.t list;
  jobs : int;
  mutable tele : Telemetry.t;
  (* [Some run]: a façade over the work-stealing DAG scheduler — batches
     are executed by [run ~n f] on the scheduler's domains instead of
     this pool's queue (it owns no domains of its own). The race-log
     batch events and scheduling counters stay identical, so a batch
     client runs unchanged on either backend. *)
  sched_run : (n:int -> (int -> unit) -> unit) option;
}

let jobs t = t.jobs

let set_telemetry t tele = t.tele <- tele

(* Run one iteration of [b] outside the lock; the lock is held on entry
   and on exit. *)
let step t (b : batch) =
  let i = b.next in
  b.next <- i + 1;
  b.active <- b.active + 1;
  Mutex.unlock t.mutex;
  (let tele = t.tele in
   if Telemetry.enabled tele then begin
     if b.submitted_at > 0. then
       Telemetry.counter tele "pool.queue_wait_us"
         (int_of_float ((Unix.gettimeofday () -. b.submitted_at) *. 1e6));
     Telemetry.counter tele "pool.tasks" 1;
     Telemetry.counter tele
       ("pool.tasks.d" ^ string_of_int (Domain.self () :> int))
       1
   end);
  if b.race_batch >= 0 then Race_log.task_start ~batch:b.race_batch ~index:i;
  let outcome =
    match b.run_task i with
    | () -> None
    | exception e -> Some (e, Printexc.get_raw_backtrace ())
  in
  (* popped before the pool can observe the task finished, so the batch's
     join event is appended after every task's end event *)
  if b.race_batch >= 0 then Race_log.task_end ~batch:b.race_batch ~index:i;
  Mutex.lock t.mutex;
  (match outcome with
   | None -> ()
   | Some _ ->
     if b.failed = None then b.failed <- outcome;
     b.next <- b.n (* cancel the rest of the batch *));
  b.active <- b.active - 1;
  if b.next >= b.n && b.active = 0 then Condition.broadcast b.finished

let worker t =
  Mutex.lock t.mutex;
  let rec loop () =
    t.queue <- List.filter (fun b -> b.next < b.n) t.queue;
    match t.queue with
    | b :: _ ->
      step t b;
      loop ()
    | [] ->
      if t.closed then Mutex.unlock t.mutex
      else begin
        Condition.wait t.wake t.mutex;
        loop ()
      end
  in
  loop ()

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    { mutex = Mutex.create ();
      wake = Condition.create ();
      queue = [];
      closed = false;
      domains = [];
      jobs;
      tele = Telemetry.null;
      sched_run = None }
  in
  t.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let of_scheduler ~jobs run =
  if jobs < 1 then invalid_arg "Pool.of_scheduler: jobs must be >= 1";
  { mutex = Mutex.create ();
    wake = Condition.create ();
    queue = [];
    closed = false;
    domains = [];
    jobs;
    tele = Telemetry.null;
    sched_run = Some run }

let run_inline ~n f =
  for i = 0 to n - 1 do
    f i
  done

let run t ~n f =
  if t.jobs = 1 || n <= 1 then run_inline ~n f
  else begin
    let race_batch = if !Race_log.on then Race_log.batch_submit () else -1 in
    match t.sched_run with
    | Some srun ->
      (* the scheduler façade: per-task bookkeeping identical to
         [step], execution delegated to the scheduler's domains *)
      if t.closed then invalid_arg "Pool.run: pool is shut down";
      let submitted_at =
        if Telemetry.enabled t.tele then Unix.gettimeofday () else 0.
      in
      let f' i =
        (let tele = t.tele in
         if Telemetry.enabled tele then begin
           if submitted_at > 0. then
             Telemetry.counter tele "pool.queue_wait_us"
               (int_of_float
                  ((Unix.gettimeofday () -. submitted_at) *. 1e6));
           Telemetry.counter tele "pool.tasks" 1;
           Telemetry.counter tele
             ("pool.tasks.d" ^ string_of_int (Domain.self () :> int))
             1
         end);
        if race_batch >= 0 then
          Race_log.task_start ~batch:race_batch ~index:i;
        let outcome =
          match f i with
          | () -> None
          | exception e -> Some (e, Printexc.get_raw_backtrace ())
        in
        if race_batch >= 0 then
          Race_log.task_end ~batch:race_batch ~index:i;
        match outcome with
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ()
      in
      let result =
        match srun ~n f' with
        | () -> None
        | exception e -> Some (e, Printexc.get_raw_backtrace ())
      in
      (* the join event is appended after every task's end either way *)
      if race_batch >= 0 then Race_log.batch_join ~batch:race_batch;
      (match result with
       | Some (e, bt) -> Printexc.raise_with_backtrace e bt
       | None -> ())
    | None ->
    let b =
      { run_task = f;
        n;
        next = 0;
        active = 0;
        failed = None;
        finished = Condition.create ();
        race_batch;
        submitted_at =
          (if Telemetry.enabled t.tele then Unix.gettimeofday () else 0.) }
    in
    Mutex.lock t.mutex;
    if t.closed then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.run: pool is shut down"
    end;
    t.queue <- b :: t.queue;
    Condition.broadcast t.wake;
    (* help drain our own batch *)
    while b.next < b.n do
      step t b
    done;
    while b.active > 0 do
      Condition.wait b.finished t.mutex
    done;
    Mutex.unlock t.mutex;
    if race_batch >= 0 then Race_log.batch_join ~batch:race_batch;
    match b.failed with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
end

let shutdown t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

let clamp_jobs j = if j < 1 then 1 else if j > 64 then 64 else j

let default_override = Atomic.make 0 (* 0 = no override *)

let set_default_jobs j = Atomic.set default_override (clamp_jobs j)

let default_jobs () =
  match Atomic.get default_override with
  | j when j > 0 -> j
  | _ ->
    (match Sys.getenv_opt "RA_JOBS" with
     | Some s ->
       (match int_of_string_opt (String.trim s) with
        | Some j when j >= 1 -> clamp_jobs j
        | Some _ | None -> clamp_jobs (Domain.recommended_domain_count ()))
     | None -> clamp_jobs (Domain.recommended_domain_count ()))

let global_mutex = Mutex.create ()
let global_pool = ref None

let global () =
  Mutex.lock global_mutex;
  let p =
    match !global_pool with
    | Some p -> p
    | None ->
      let p = create ~jobs:(default_jobs ()) in
      global_pool := Some p;
      p
  in
  Mutex.unlock global_mutex;
  p
