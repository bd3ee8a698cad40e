module Json = Simcov_util.Json
module Obs = Simcov_obs.Obs

type jstate = Queued | Running | Finished of Job.status

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Finished s -> Job.status_name s

type rec_job = {
  rj_id : string;
  rj_job : Job.t;
  mutable rj_on_line : string -> unit;
  mutable rj_on_done : Json.t -> unit;
      (** both dropped on resolve: they hold the submitter's channels *)
  rj_cancel : bool Atomic.t;
  mutable rj_state : jstate;
}

type t = {
  cache : Model_cache.t;
  queue_limit : int;
  lock : Mutex.t;
  cond : Condition.t;  (** signaled on enqueue and drain *)
  done_cond : Condition.t;  (** signaled when a job resolves *)
  queue : rec_job Queue.t;
  jobs : (string, rec_job) Hashtbl.t;
      (** queued and running jobs plus the {!finished_kept} most
          recently finished *)
  mutable order : string list;  (** submission order, reversed *)
  finished : string Queue.t;  (** ids in [jobs] that resolved, oldest first *)
  mutable next_id : int;
  mutable pending : int;  (** queued + running *)
  mutable draining : bool;
  stop_all : bool Atomic.t;
  tokens : int Atomic.t;
  reorder_pending : bool Atomic.t;
      (** cache pressure seen — sift cached managers between jobs *)
  mutable domains : unit Domain.t list;
}

(* ---- the global domain-token budget ---- *)

(* take up to [want] tokens, never blocking: a campaign that asked for
   more shards than the machine has spare cores still runs with its
   requested decomposition, just narrower (max_workers) *)
let take_tokens t want =
  if want <= 0 then 0
  else
    let rec go () =
      let avail = Atomic.get t.tokens in
      let n = min want avail in
      if n = 0 then 0
      else if Atomic.compare_and_set t.tokens avail (avail - n) then n
      else go ()
    in
    go ()

let return_tokens t n = if n > 0 then ignore (Atomic.fetch_and_add t.tokens n)

(* ---- job execution ---- *)

let declared_jobs (job : Job.t) =
  match job.Job.spec with
  | Job.Coverage p -> p.Job.cov_jobs
  | Job.Validate_dlx p -> p.Job.va_jobs
  | _ -> 1

let envelope_of_outcome rj (o : Service.outcome) =
  Job.envelope ~id:rj.rj_id ~kind:(Job.kind rj.rj_job)
    ~status:(Service.status_of o) ~exit_code:o.Service.exit_code
    ?error:o.Service.error ?report:o.Service.report ()

let finished_kept = 128

(* forget the oldest finished job once more than [finished_kept] have
   resolved (jobs resolve one at a time); under the lock *)
let evict_finished t =
  if Queue.length t.finished > finished_kept then begin
    Hashtbl.remove t.jobs (Queue.pop t.finished);
    t.order <- List.filter (Hashtbl.mem t.jobs) t.order
  end

let resolve t rj status envelope =
  (* the user callback runs outside the lock (it may be a slow socket
     write) but before the job counts as resolved, so [wait] implies
     every envelope has been delivered *)
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect t.lock (fun () ->
          rj.rj_state <- Finished status;
          rj.rj_on_line <- ignore;
          rj.rj_on_done <- ignore;
          t.pending <- t.pending - 1;
          Queue.push rj.rj_id t.finished;
          evict_finished t;
          Condition.broadcast t.done_cond))
    (fun () -> rj.rj_on_done envelope)

let cancelled_envelope rj =
  Job.envelope ~id:rj.rj_id ~kind:(Job.kind rj.rj_job) ~status:Job.Cancelled
    ~exit_code:130 ~error:"cancelled before start" ()

let metrics_line () = Json.to_string ~indent:0 (Obs.snapshot ())

let execute t rj =
  let reg = Obs.registry ~label:rj.rj_id in
  let should_stop () = Atomic.get rj.rj_cancel || Atomic.get t.stop_all in
  let extra = take_tokens t (declared_jobs rj.rj_job - 1) in
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        return_tokens t extra;
        Obs.release reg)
      (fun () ->
        Obs.with_registry reg (fun () ->
            Obs.set_sink (Some rj.rj_on_line);
            Fun.protect
              ~finally:(fun () -> Obs.set_sink None)
              (fun () ->
                (* stream a metrics snapshot at most twice a second
                   while the campaign reports progress, and always one
                   final snapshot before the envelope *)
                let last = ref (Unix.gettimeofday ()) in
                let on_progress _ =
                  let now = Unix.gettimeofday () in
                  if now -. !last >= 0.5 then begin
                    last := now;
                    rj.rj_on_line (metrics_line ())
                  end
                in
                let o =
                  try
                    Service.run ~cache:t.cache ~max_workers:(1 + extra)
                      ~should_stop ~on_progress rj.rj_job
                  with e ->
                    {
                      Service.exit_code = 4;
                      report = None;
                      human = "";
                      notes = [];
                      error = Some ("internal error: " ^ Printexc.to_string e);
                      interrupted = false;
                    }
                in
                rj.rj_on_line (metrics_line ());
                o)))
  in
  resolve t rj (Service.status_of outcome) (envelope_of_outcome rj outcome)

let worker_loop t =
  let rec next () =
    let job =
      Mutex.protect t.lock (fun () ->
          let rec wait () =
            if not (Queue.is_empty t.queue) then begin
              let rj = Queue.pop t.queue in
              rj.rj_state <- Running;
              Some rj
            end
            else if t.draining then None
            else begin
              Condition.wait t.cond t.lock;
              wait ()
            end
          in
          wait ())
    in
    match job with
    | None -> ()
    | Some rj ->
        (if Atomic.get rj.rj_cancel then
           resolve t rj Job.Cancelled (cancelled_envelope rj)
         else execute t rj);
        (* between jobs, never during one: sift the cached symbolic
           managers if the cache signalled pressure while we ran.
           [exchange] makes one worker claim the pass; managers busy
           under another worker's job are skipped inside. *)
        if Atomic.exchange t.reorder_pending false && not (Atomic.get t.stop_all)
        then Model_cache.reorder_cached t.cache;
        next ()
  in
  next ()

(* ---- public API ---- *)

let create ?(cache = Model_cache.shared) ?(queue_limit = 64) ?(workers = 2)
    ?domain_tokens () =
  let domain_tokens =
    match domain_tokens with
    | Some n -> max 1 n
    | None -> Domain.recommended_domain_count ()
  in
  let t =
    {
      cache;
      queue_limit;
      lock = Mutex.create ();
      cond = Condition.create ();
      done_cond = Condition.create ();
      queue = Queue.create ();
      jobs = Hashtbl.create 16;
      order = [];
      finished = Queue.create ();
      next_id = 0;
      pending = 0;
      draining = false;
      stop_all = Atomic.make false;
      tokens = Atomic.make (max 1 (domain_tokens - workers));
      reorder_pending = Atomic.make false;
      domains = [];
    }
  in
  Model_cache.set_eviction_hook cache (fun () ->
      Atomic.set t.reorder_pending true);
  t.domains <- List.init workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let submit t ?(on_line = fun _ -> ()) ?(on_done = fun _ -> ()) job =
  Mutex.protect t.lock (fun () ->
      if t.draining then Error "pool is draining"
      else if Queue.length t.queue >= t.queue_limit then Error "queue is full"
      else begin
        let id =
          match job.Job.id with
          | Some id when not (Hashtbl.mem t.jobs id) -> id
          | _ ->
              t.next_id <- t.next_id + 1;
              let rec fresh n =
                let id = Printf.sprintf "job-%d" n in
                if Hashtbl.mem t.jobs id then fresh (n + 1) else id
              in
              fresh t.next_id
        in
        let rj =
          {
            rj_id = id;
            rj_job = job;
            rj_on_line = on_line;
            rj_on_done = on_done;
            rj_cancel = Atomic.make false;
            rj_state = Queued;
          }
        in
        Hashtbl.replace t.jobs id rj;
        t.order <- id :: t.order;
        t.pending <- t.pending + 1;
        Queue.push rj t.queue;
        Condition.signal t.cond;
        Ok id
      end)

let cancel t id =
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.jobs id) with
  | None -> false
  | Some rj -> (
      match rj.rj_state with
      | Finished _ -> false
      | Queued | Running ->
          Atomic.set rj.rj_cancel true;
          true)

let list t =
  Mutex.protect t.lock (fun () ->
      Json.Obj
        [
          ("schema", Json.String "simcov-jobs/1");
          ( "jobs",
            Json.List
              (List.rev_map
                 (fun id ->
                   let rj = Hashtbl.find t.jobs id in
                   Json.Obj
                     [
                       ("id", Json.String id);
                       ("kind", Json.String (Job.kind rj.rj_job));
                       ("state", Json.String (state_name rj.rj_state));
                     ])
                 t.order) );
        ])

let wait t =
  Mutex.protect t.lock (fun () ->
      while t.pending > 0 do
        Condition.wait t.done_cond t.lock
      done)

let drain t =
  let queued =
    Mutex.protect t.lock (fun () ->
        if t.draining then []
        else begin
          t.draining <- true;
          Atomic.set t.stop_all true;
          let qs = Queue.fold (fun acc rj -> rj :: acc) [] t.queue in
          Queue.clear t.queue;
          Condition.broadcast t.cond;
          List.rev qs
        end)
  in
  List.iter
    (fun rj -> resolve t rj Job.Cancelled (cancelled_envelope rj))
    queued;
  let domains = t.domains in
  t.domains <- [];
  List.iter Domain.join domains
