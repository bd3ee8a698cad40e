(* simcov's benchmark: one command, named workloads, every output
   checked.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              --simcov PATH-TO-simcov.exe

   An untraced run ([--trace 0]) reports the end-to-end metrics of one
   workload; a traced run ([--trace 1]) reports the per-layer metrics.
   The program is driven only through its public entry points —
   [Service.run], [Daemon.*] and the [simcov serve] binary — and the
   per-layer numbers come from timing calls into each layer from
   outside plus the counters, timers and trace events simcov already
   exports. The last stdout line is the JSON result record; the exit
   code is 0 only when every check passed. See README.md. *)

module Json = Simcov_util.Json
module Obs = Simcov_obs.Obs
module Job = Simcov_service.Job
module Service = Simcov_service.Service
module Daemon = Simcov_service.Daemon
module Model_cache = Simcov_service.Model_cache
module Stats = Perfbench.Stats

let now = Unix.gettimeofday
let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* ---- workloads and their job specs ---- *)

type workload = Daemon_stuckat | Validate_cold

let workloads = [ ("daemon-stuckat", Daemon_stuckat); ("validate-cold", Validate_cold) ]

(* closed-loop clients of every workload, one per core of the 2-core
   reference machine: the daemon's connections, or in-process domains *)
let clients = 2

(* how many times setup runs in one invocation, before and after the
   timed window, so that setup_s, their median, is not taken from one
   moment of the host's load *)
let setup_reps_before = 6
let setup_reps_after = 6

(* On daemon-stuckat the daemon's VmHWM grows with the jobs it has
   served, so peak_rss_mb is read when the window's job [rss_jobs]
   completes, not when the window ends. *)
let rss_jobs = 1000

(* ops_per_s and faults_per_s are medians over consecutive stretches of
   [segment] completed ops, and on validate-cold so is peak_rss_mb (the
   high-water mark of each stretch): a burst of host load then moves
   only the stretches it falls in. One high-water mark over the whole
   window would also be set by the moment the two clients' largest
   allocations happen to coincide, which varies from run to run far
   more than the typical peak does. *)
let segment = 10

(* The fewest ops a timed window runs, however short [--seconds] is:
   100 put ten samples beyond p90; daemon-stuckat runs until its memory
   has been read. *)
let min_ops = function Daemon_stuckat -> rss_jobs | Validate_cold -> 100

(* distinct job seeds a workload cycles through; each has its reference
   report computed outside the timed window. daemon-stuckat's pool is
   large enough that no two jobs in flight share a seed, and small
   enough that its references take seconds, not the minute that one
   per job would. *)
let seed_pool = function
  | Daemon_stuckat -> 256
  | Validate_cold -> 4

(* Job seed [i] of a workload seed: the same workload seed always
   yields the same sequence of job specs. Negative [i] are warm-up
   jobs. *)
let job_seed seed i =
  Random.State.bits (Random.State.make [| seed; i |]) land 0xFFFFFF

(* the jobs of one op *)
let op_jobs w seed =
  match w with
  | Daemon_stuckat ->
      let d = Job.default_coverage ~model:"dlx-test" in
      [ Job.make (Job.Coverage { d with Job.cov_faults = Job.Stuckat_faults; cov_seed = seed }) ]
  | Validate_cold ->
      [
        Job.make (Job.Validate_dlx { Job.default_validate with Job.va_seed = seed });
        Job.make (Job.Stats Job.default_stats);
      ]

(* ---- reports: masking, comparison, invariants ---- *)

(* The two report members that legitimately vary run to run are
   nulled; everything else must match byte for byte. *)
let mask j =
  let drop =
    match Json.member "schema" j with
    | Some (Json.String "simcov-stats/1") -> Some "time_s"
    | Some (Json.String "simcov-validate/1") -> Some "timings"
    | _ -> None
  in
  match (drop, j) with
  | Some key, Json.Obj fields ->
      Json.Obj (List.map (fun (k, v) -> if k = key then (k, Json.Null) else (k, v)) fields)
  | _ -> j

let render reports = List.map (fun r -> Json.to_string ~indent:0 (mask r)) reports

let num = function
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | _ -> None

let rec path j = function
  | [] -> Some j
  | k :: rest -> Option.bind (Json.member k j) (fun v -> path v rest)

(* The invariants the paper's results pin, checked on every reference
   report; a violation names the member. *)
let invariants reports =
  let expect r keys v =
    if num (path r keys) = Some v then []
    else [ Printf.sprintf "%s is not %g" (String.concat "." keys) v ]
  in
  List.concat_map
    (fun r ->
      match (Json.member "schema" r, Json.member "backend" r) with
      | Some (Json.String "simcov-stats/1"), _ ->
          expect r [ "reachable_states" ] 3374023. @ expect r [ "iterations" ] 5.
      | Some (Json.String "simcov-validate/1"), _ ->
          (if path r [ "certificate"; "ok" ] = Some (Json.Bool true) then []
           else [ "certificate is not intact" ])
          @ expect r [ "fsm_fault_coverage_pct" ] 100.
          @ expect r [ "bug_coverage_pct" ] 100.
      | Some (Json.String "simcov-campaign/1"), Some (Json.String "fsm-fault") ->
          expect r [ "coverage_pct" ] 100.
      | Some (Json.String "simcov-campaign/1"), Some (Json.String "stuck-at") ->
          expect r [ "effective" ] 98.
      | _ -> [ "unexpected report schema" ])
    reports

(* In-process execution of one op: its reports, or why it failed. *)
let run_jobs ~cache jobs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | job :: rest -> (
        match Service.run ~cache job with
        | exception e -> Error (Job.kind job ^ " raised " ^ Printexc.to_string e)
        | o when o.Service.exit_code <> 0 ->
            Error (Printf.sprintf "%s exited %d" (Job.kind job) o.Service.exit_code)
        | { Service.report = None; _ } -> Error (Job.kind job ^ " gave no report")
        | { Service.report = Some r; _ } -> go (r :: acc) rest)
  in
  go [] jobs

(* The dlx FSM campaign of E15 (4096 faults) must reach 100%. No
   workload times it, so every run checks it once, after everything
   timed; returns the invariants it breaks. *)
let dlx_campaign_check ~seed =
  let d = Job.default_coverage ~model:"dlx" in
  let job =
    Job.Coverage
      { d with Job.cov_faults = Job.Fsm_faults; cov_seed = job_seed seed 0; cov_count = 2048 }
  in
  match run_jobs ~cache:(Model_cache.create ()) [ Job.make job ] with
  | Ok reports -> invariants reports
  | Error e -> [ "dlx FSM campaign: " ^ e ]

(* The reference rendering of op [key], computed in-process, with the
   invariants it breaks. *)
let reference w ~seed ~cache key =
  match run_jobs ~cache (op_jobs w (job_seed seed key)) with
  | Ok reports -> (render reports, invariants reports)
  | Error e -> ([], [ "reference: " ^ e ])

(* [f] over [a] on [n] domains, each with its own model cache. Element
   0 runs first, alone: simcov's CRC-32 table is a plain [lazy], and
   forcing it from two domains at once raises
   [CamlinternalLazy.Undefined]. *)
let par_map n f a =
  let out = Array.make (Array.length a) None in
  if Array.length a > 0 then out.(0) <- Some (f ~cache:(Model_cache.create ()) a.(0));
  List.init n (fun d ->
      Domain.spawn (fun () ->
          let cache = Model_cache.create () in
          Array.iteri
            (fun i x -> if i > 0 && i mod n = d then out.(i) <- Some (f ~cache x))
            a))
  |> List.iter Domain.join;
  Array.map Option.get out

(* ---- samples ---- *)

type sample = {
  key : int;  (** job index: which seed the op ran *)
  lat : float;  (** seconds *)
  t_end : float;
  faults : int;  (** effective faults the op's campaigns judged *)
  outcome : (Json.t list, string) result;
  traced : bool;
  spans : Stats.span list;  (** product spans, traced ops only *)
  daemon_s : float;  (** client latency not spent inside the job *)
  lines : int;  (** streamed lines, daemon ops only *)
  cache_hits : int;
  cache_misses : int;
}

let counter_of snap name =
  match path snap [ "counters"; name ] with Some (Json.Int i) -> i | _ -> 0

let gauge_of snap name =
  match path snap [ "gauges"; name ] with Some (Json.Int i) -> i | _ -> 0

let timer_of snap name =
  Option.value ~default:0. (num (path snap [ "timers"; name; "total_s" ]))

(* ---- the daemon child ---- *)

type daemon = { pid : int; socket : string }

let run_dir = "_perfbench"

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "%s/d%d-%d.sock" run_dir (Unix.getpid ()) !n

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, st -> Some st
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Some (Unix.WEXITED 255)

let status_text = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by %d" s

(* wait for [pid] to end, SIGKILLing it after [grace] seconds *)
let reap ~grace pid =
  let deadline = now () +. grace in
  let rec loop () =
    match exited pid with
    | Some st -> st
    | None when now () > deadline ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        snd (Unix.waitpid [] pid)
    | None ->
        Unix.sleepf 0.002;
        loop ()
  in
  loop ()

(* Start [simcov serve] on a private socket and wait until it answers a
   ping. *)
let start_daemon ~simcov =
  let socket = fresh_socket () in
  let pid =
    Unix.create_process simcov
      [| simcov; "serve"; "--socket"; socket; "--workers"; string_of_int clients |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let deadline = now () +. 30. in
  let rec wait () =
    match exited pid with
    | Some st -> failwith ("simcov serve ended before it was ready: " ^ status_text st)
    | None when now () > deadline ->
        ignore (reap ~grace:0. pid);
        failwith "simcov serve was not ready within 30 s"
    | None -> (
        if not (Sys.file_exists socket) then (Unix.sleepf 0.001; wait ())
        else
          match Daemon.ping ~socket with
          | Ok _ -> ()
          | Error _ -> Unix.sleepf 0.001; wait ())
  in
  wait ();
  { pid; socket }

(* Lifecycle check: SIGTERM must drain to exit 0 and remove the socket. *)
let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  match reap ~grace:60. d.pid with
  | Unix.WEXITED 0 when not (Sys.file_exists d.socket) -> Ok ()
  | Unix.WEXITED 0 -> Error "drain left the socket file behind"
  | st -> Error ("drain ended with " ^ status_text st)

let vmhwm_mb pid =
  let file = Printf.sprintf "/proc/%s/status" pid in
  match open_in file with
  | exception Sys_error _ -> 0.
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> 0.
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> find ()
      in
      find ()

(* Lower this process's VmHWM to its current resident set (Linux
   clear_refs "5"), so the next read gives the peak since this call. *)
let reset_vmhwm () =
  let oc = open_out "/proc/self/clear_refs" in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")

(* One job over the wire, read as a sample. *)
let submit_sample ~socket ~traced key job =
  let lines = ref 0 and final = ref None and events = ref [] in
  let on_event j =
    incr lines;
    (match Json.member "schema" j with
    | Some (Json.String "simcov-metrics/1") -> final := Some j
    | _ -> ());
    if traced then events := j :: !events
  in
  let t0 = now () in
  let r = try Daemon.submit ~socket ~on_event job with e -> Error (Printexc.to_string e) in
  let t1 = now () in
  let lat = t1 -. t0 in
  let outcome =
    match r with
    | Error msg -> Error ("connection: " ^ msg)
    | Ok env -> (
        match (Json.member "status" env, Json.member "exit_code" env, Json.member "report" env) with
        | Some (Json.String "done"), Some (Json.Int 0), Some report -> Ok [ report ]
        | Some (Json.String st), _, _ -> Error ("envelope status " ^ st)
        | _ -> Error "malformed envelope")
  in
  let snap = Option.value ~default:(Json.Obj []) !final in
  let job_s = Option.value ~default:lat (num (Json.member "wall_clock_s" snap)) in
  {
    key;
    lat;
    t_end = t1;
    faults = counter_of snap "campaign.faults_evaluated";
    outcome;
    traced;
    spans = List.filter_map Stats.span_of_event !events;
    daemon_s = lat -. job_s;
    lines = !lines;
    cache_hits = counter_of snap "service.cache.hits";
    cache_misses = counter_of snap "service.cache.misses";
  }

(* [f ()] under a fresh Obs registry, with the registry's snapshot *)
let with_fresh_registry f =
  let reg = Obs.registry ~label:"perfbench" in
  Fun.protect ~finally:(fun () -> Obs.release reg) @@ fun () ->
  Obs.with_registry reg (fun () ->
      let x = f () in
      (x, Obs.snapshot ()))

(* One in-process op under its own Obs registry, as the daemon's pool
   runs each job; a traced op also installs a trace sink. *)
let inproc_sample ~traced key exec =
  let lines = ref [] in
  let (outcome, lat, t_end), snap =
    with_fresh_registry (fun () ->
        if traced then Obs.set_sink (Some (fun l -> lines := l :: !lines));
        let t0 = now () in
        let outcome = exec key in
        let t1 = now () in
        Obs.set_sink None;
        (outcome, t1 -. t0, t1))
  in
  let event l = Option.bind (Result.to_option (Json.parse l)) Stats.span_of_event in
  {
    key;
    lat;
    t_end;
    faults = counter_of snap "campaign.faults_evaluated";
    outcome;
    traced;
    spans = List.filter_map event !lines;
    daemon_s = 0.;
    lines = 0;
    cache_hits = counter_of snap "service.cache.hits";
    cache_misses = counter_of snap "service.cache.misses";
  }

(* ---- the timed window ---- *)

(* [clients] closed-loop clients, each running [op i] for the next job
   index [i] until the deadline has passed and at least [min_ops] ops
   have started. *)
let closed_loop ~seconds ~min_ops op =
  let next = Atomic.make 0 in
  let t_start = now () in
  let deadline = t_start +. seconds in
  let client () =
    let acc = ref [] in
    while now () < deadline || Atomic.get next < min_ops do
      acc := op (Atomic.fetch_and_add next 1) :: !acc
    done;
    !acc
  in
  let samples = List.init clients (fun _ -> Domain.spawn client) |> List.concat_map Domain.join in
  (samples, t_start)

(* With [trace], in-process ops are traced in alternate rounds of the
   seed pool, so every job seed runs both traced and untraced. *)
let traced_op trace ~pool i = trace && i / pool mod 2 = 0

(* ---- per-layer probes (traced runs) ---- *)

let ms s = 1000. *. s

(* median milliseconds of [reps] calls, with the last result *)
let time_reps reps f =
  let last = ref None in
  let ts =
    Array.init reps (fun _ ->
        let t0 = now () in
        last := Some (f ());
        now () -. t0)
  in
  (ms (Stats.median ts), Option.get !last)

let ok_or_fail what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)

let probe_reps = 3

(* Every layer's public functions, timed from outside. Returns the
   metrics and the deterministic counts of the symbolic probe. *)
let layer_probes ~seed =
  let module Testmodel = Simcov_dlx.Testmodel in
  let module Tour = Simcov_testgen.Tour in
  let module Fault = Simcov_coverage.Fault in
  let module Symfsm = Simcov_symbolic.Symfsm in
  let miss_ms, (test_c, control_c, m) =
    time_reps probe_reps (fun () ->
        let cache = Model_cache.create () in
        let circuit name = ok_or_fail name (Model_cache.circuit_of_spec cache name) in
        let c, _, canonical = circuit "dlx-test" in
        let control, _, _ = circuit "dlx-control" in
        let m, _, _ = ok_or_fail "dlx" (Model_cache.fsm_of_spec cache "dlx") in
        ignore
          (Model_cache.sym_of_circuit cache ~reorder:Job.Reorder_off ~canonical (fun () ->
               Symfsm.of_circuit c));
        (c, control, m))
  in
  let build_ms, _ =
    time_reps probe_reps (fun () -> Simcov_fsm.Fsm.tabulate (Testmodel.build Testmodel.default))
  in
  let greedy_ms, greedy = time_reps probe_reps (fun () -> Tour.greedy_transition_tour m) in
  let tour_ms, _ = time_reps probe_reps (fun () -> Tour.transition_tour m) in
  let sample_ms, _ =
    time_reps probe_reps (fun () ->
        let rng = Simcov_util.Rng.create (job_seed seed 0) in
        let n_outputs =
          List.fold_left (fun acc (_, _, _, o) -> max acc (o + 1)) 1 (Simcov_fsm.Fsm.transitions m)
        in
        Fault.sample_transfer_faults rng m ~count:2048
        @ Fault.sample_output_faults rng m ~n_outputs ~count:2048)
  in
  let lint_ms, _ =
    time_reps probe_reps (fun () ->
        Simcov_analysis.Lint.run ~name:"dlx-test" ~against:control_c test_c)
  in
  let fsm_lint_ms, _ = time_reps probe_reps (fun () -> Simcov_analysis.Fsm_lint.run m) in
  let certify_ms, _ = time_reps probe_reps (fun () -> Simcov_core.Completeness.certify m) in
  (* symbolic: build and reach under a fresh registry, [probe_reps]
     times; the counts of every repetition must agree *)
  let sym =
    List.init probe_reps (fun _ ->
        with_fresh_registry (fun () ->
            let t0 = now () in
            let s = Symfsm.of_circuit test_c in
            let t1 = now () in
            let tr = Symfsm.reachable_stats s in
            (t1 -. t0, now () -. t1, tr.Symfsm.iterations)))
  in
  let med f = ms (Stats.median (Array.of_list (List.map f sym))) in
  let (_, _, iterations), snap = List.hd sym in
  let cache_hits, cache_misses =
    List.fold_left
      (fun (h, m) (name, v) ->
        match (v, String.split_on_char '.' name) with
        | Json.Int n, [ "bdd"; "cache"; _; "hit" ] -> (h + n, m)
        | Json.Int n, [ "bdd"; "cache"; _; "miss" ] -> (h, m + n)
        | _ -> (h, m))
      (0, 0)
      (match Json.member "counters" snap with Some (Json.Obj l) -> l | _ -> [])
  in
  let sym_counts snap =
    [
      ("symbolic.images", counter_of snap "symfsm.images");
      ("bdd.unique_miss", counter_of snap "bdd.unique.miss");
      ("bdd.peak_nodes", gauge_of snap "bdd.nodes.peak");
    ]
  in
  let metrics =
    [
      ("model_cache.miss_ms", miss_ms, "ms");
      ("dlx.testmodel_build_ms", build_ms, "ms");
      ("testgen.greedy_tour_ms", greedy_ms, "ms");
      ( "testgen.tour_length",
        (match greedy with Some t -> float_of_int t.Tour.length | None -> 0.),
        "count" );
      ("testgen.tour_ms", tour_ms, "ms");
      ("coverage.fault_sample_ms", sample_ms, "ms");
      ("analysis.lint_ms", lint_ms, "ms");
      ("analysis.fsm_lint_ms", fsm_lint_ms, "ms");
      ("core.certify_ms", certify_ms, "ms");
      ("symbolic.build_ms", med (fun ((b, _, _), _) -> b), "ms");
      ("symbolic.reach_ms", med (fun ((_, r, _), _) -> r), "ms");
      ("symbolic.iterations", float_of_int iterations, "count");
      ( "bdd.op_cache_hit_ratio",
        Stats.ratio (float cache_hits) (float (cache_hits + cache_misses)),
        "ratio" );
      ("bdd.gc_runs", float_of_int (counter_of snap "bdd.gc.runs"), "count");
    ]
    @ List.map (fun (n, v) -> (n, float_of_int v, "count")) (sym_counts snap)
  in
  (metrics, List.map (fun (_, snap) -> sym_counts snap) sym)

let methodology_phases =
  [ "lint"; "tabulate"; "fsm_lint"; "symbolic"; "requirements"; "certificate"; "tour";
    "concretize"; "bug_campaign"; "fsm_campaign" ]

(* Per-phase medians from the [timings] member of [simcov-validate/1]. *)
let validate_phases ~seed =
  let runs =
    List.init probe_reps (fun _ ->
        match run_jobs ~cache:(Model_cache.create ()) [ List.hd (op_jobs Validate_cold seed) ] with
        | Ok [ r ] -> r
        | Ok _ -> failwith "validate-dlx: expected one report"
        | Error e -> failwith e)
  in
  List.map
    (fun phase ->
      let v r = Option.value ~default:0. (num (path r [ "timings"; phase ])) in
      ( "methodology." ^ phase ^ "_ms",
        ms (Stats.median (Array.of_list (List.map v runs))),
        "ms" ))
    methodology_phases

(* [Service.run] replays of the workload's first op spec, each under a
   fresh registry: latency and the campaign layer's counters. The cache
   is warmed by one untimed run, except on validate-cold, whose ops
   start cold. *)
let replay w ~seed =
  let jobs = op_jobs w (job_seed seed 0) in
  let warm = Model_cache.create () in
  if w <> Validate_cold then ignore (run_jobs ~cache:warm jobs);
  List.init probe_reps (fun _ ->
      let cache = if w = Validate_cold then Model_cache.create () else warm in
      with_fresh_registry (fun () ->
          let t0 = now () in
          let r = run_jobs ~cache jobs in
          (now () -. t0, r)))

let replay_metrics runs =
  let (_, _), snap = List.hd runs in
  let batches = counter_of snap "campaign.batches" in
  let evaluated = counter_of snap "campaign.faults_evaluated" in
  let lanes = gauge_of snap "campaign.lanes" in
  [
    ( "service.run_ms",
      ms (Stats.median (Array.of_list (List.map (fun ((t, _), _) -> t) runs))),
      "ms" );
    ("campaign.run_ms", ms (timer_of snap "campaign.batch"), "ms");
    ("campaign.batches", float_of_int batches, "count");
    ("campaign.sim_steps", float_of_int (counter_of snap "campaign.sim_steps"), "count");
    ("campaign.faults_evaluated", float_of_int evaluated, "count");
    ("campaign.lanes_diverged", float_of_int (counter_of snap "campaign.lanes_diverged"), "count");
    ( "campaign.lane_fill",
      Stats.ratio (float_of_int evaluated) (float_of_int (batches * lanes)),
      "ratio" );
  ]

let replay_counts runs =
  List.map
    (fun (_, snap) ->
      [
        ("campaign.sim_steps", counter_of snap "campaign.sim_steps");
        ("campaign.batches", counter_of snap "campaign.batches");
      ])
    runs

(* The tracing overhead: median latency of the traced ops over that of
   the untraced ones, less one, in percent. *)
let trace_overhead samples =
  let traced, untraced = List.partition (fun s -> s.traced) samples in
  let med l = Stats.median (Array.of_list (List.map (fun s -> s.lat) l)) in
  if traced = [] || untraced = [] then 0. else 100. *. ((med traced /. med untraced) -. 1.)

(* Where the traced ops' time went: each layer's self time as a share
   of their total latency, and the mean latency no span covers. *)
let trace_metrics ~overhead samples =
  let traced = List.filter (fun s -> s.traced) samples in
  let totals = Hashtbl.create 8 in
  let total k = Option.value ~default:0. (Hashtbl.find_opt totals k) in
  let add k v = Hashtbl.replace totals k (v +. total k) in
  List.iter
    (fun s ->
      let self, _ = Stats.self_times s.spans in
      add "daemon" s.daemon_s;
      List.iter (fun (l, v) -> add l v) self;
      add "lat" s.lat)
    traced;
  let attributed = Hashtbl.fold (fun k v a -> if k = "lat" then a else a +. v) totals 0. in
  List.map
    (fun l -> ("self." ^ l ^ "_pct", 100. *. Stats.ratio (total l) (total "lat"), "%"))
    [ "daemon"; "campaign"; "methodology"; "symbolic" ]
  @ [
      ( "unattributed_ms",
        ms (Stats.ratio (total "lat" -. attributed) (float_of_int (List.length traced))),
        "ms" );
      ("obs.trace_overhead_pct", overhead, "%");
    ]

(* ---- running one workload ---- *)

type run = {
  metrics : (string * float * string) list;
  tally : Stats.tally;
  problems : string list;  (** failed checks other than op failures *)
}

let check_samples tally ~reference samples =
  List.iter
    (fun s ->
      Stats.record tally
        (match s.outcome with
        | Error e -> Error e
        | Ok reports when render reports = reference s.key -> Ok ()
        | Ok _ -> Error "report mismatch"))
    samples

let end_to_end ~setup ~rss samples t_start =
  let lats = Array.of_list (List.map (fun s -> ms s.lat) samples) in
  let by_end = List.sort (fun a b -> Float.compare a.t_end b.t_end) samples in
  let ends = Array.of_list (List.map (fun s -> s.t_end) by_end) in
  let rate amount =
    Stats.median
      (Stats.segment_rates ~size:segment ~t_start ends (Array.of_list (List.map amount by_end)))
  in
  let n = Array.length lats in
  log "setup times: %s s" (String.concat " " (List.map (Printf.sprintf "%.4f") setup));
  if n >= 2 then begin
    let q1, q2, q3 = Stats.quartiles lats in
    log "latency quartiles over %d ops: %.2f / %.2f / %.2f ms" n q1 q2 q3
  end;
  [
    ("setup_s", Stats.median (Array.of_list setup), "s");
    ("ops_per_s", rate (fun _ -> 1.), "1/s");
    ("latency_p50_ms", Stats.percentile 50 lats, "ms");
    ("latency_p90_ms", Stats.percentile 90 lats, "ms");
    ("faults_per_s", rate (fun s -> float_of_int s.faults), "1/s");
    ("peak_rss_mb", rss, "MB");
  ]

let cache_ratio samples =
  let h = List.fold_left (fun a s -> a + s.cache_hits) 0 samples in
  let m = List.fold_left (fun a s -> a + s.cache_misses) 0 samples in
  ("model_cache.hit_ratio", Stats.ratio (float h) (float (h + m)), "ratio")

let daemon_metrics ~socket ~daemon_samples =
  let pings =
    Array.init 20 (fun _ ->
        let t0 = now () in
        ignore (ok_or_fail "ping" (Daemon.ping ~socket));
        ms (now () -. t0))
  in
  let arr f = Array.of_list (List.map f daemon_samples) in
  [
    ("daemon.ping_ms", Stats.median pings, "ms");
    ("daemon.overhead_ms", Stats.median (arr (fun s -> ms s.daemon_s)), "ms");
    ("daemon.lines_per_job", Stats.median (arr (fun s -> float_of_int s.lines)), "count");
  ]

(* The layer metrics every traced run reports, plus the determinism
   check of their counts. *)
let traced_layers w ~seed ~problems =
  let probes, sym_counts = layer_probes ~seed in
  let runs = replay w ~seed in
  List.iter
    (fun ((_, r), _) ->
      match r with Ok _ -> () | Error e -> problems := ("replay: " ^ e) :: !problems)
    runs;
  let counts = List.map2 ( @ ) (replay_counts runs) sym_counts in
  (match counts with
  | first :: rest ->
      List.iter
        (fun c ->
          List.iter2
            (fun (name, a) (_, b) ->
              if a <> b then
                problems :=
                  Printf.sprintf "%s is not deterministic: %d vs %d" name a b :: !problems)
            first c)
        rest;
      log "deterministic counts: %s"
        (String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) first))
  | [] -> ());
  replay_metrics runs @ probes @ validate_phases ~seed

(* Tracing overhead on a workload's job specs, in-process on a warm
   cache: each of the first [overhead_pairs] specs runs once with a
   trace sink and once without, alternating which goes first. The
   daemon streams every job's trace, so the daemon-stuckat window has no
   untraced op to compare against. *)
let overhead_pairs = 40

let replay_overhead w ~seed =
  let cache = Model_cache.create () in
  let exec k = run_jobs ~cache (op_jobs w (job_seed seed k)) in
  ignore (exec 0);
  List.init overhead_pairs (fun k ->
      let first = inproc_sample ~traced:(k mod 2 = 0) k exec in
      [ first; inproc_sample ~traced:(not first.traced) k exec ])
  |> List.concat |> trace_overhead

let run_daemon_workload ~simcov ~seed ~seconds ~trace =
  let problems = ref [] in
  let lifecycle d =
    match stop_daemon d with Ok () -> () | Error e -> problems := ("daemon " ^ e) :: !problems
  in
  let job i = List.hd (op_jobs Daemon_stuckat (job_seed seed i)) in
  let warm d i =
    match (submit_sample ~socket:d.socket ~traced:false i (job i)).outcome with
    | Ok _ -> ()
    | Error e -> failwith ("warm-up job: " ^ e)
  in
  (* one setup: start, wait for the socket, warm the cache *)
  let live = ref None in
  let setup () =
    let t0 = now () in
    let d = start_daemon ~simcov in
    live := Some d;
    warm d (-1);
    warm d (-2);
    (d, now () -. t0)
  in
  (* a setup that does not serve the window is drained again at once *)
  let setup_and_stop () =
    let d, s = setup () in
    live := None;
    lifecycle d;
    s
  in
  Fun.protect
    ~finally:(fun () ->
      match !live with
      | Some d -> ignore (reap ~grace:0. d.pid)
      | None -> ())
    (fun () ->
      let before = List.init (setup_reps_before - 1) (fun _ -> setup_and_stop ()) in
      let d, s = setup () in
      let served = Atomic.make 0 and rss = ref 0. in
      let pool = seed_pool Daemon_stuckat in
      let samples, t_start =
        closed_loop ~seconds ~min_ops:(min_ops Daemon_stuckat) (fun i ->
            let s = submit_sample ~socket:d.socket ~traced:trace (i mod pool) (job (i mod pool)) in
            if Atomic.fetch_and_add served 1 = rss_jobs - 1 then rss := vmhwm_mb (string_of_int d.pid);
            s)
      in
      let layer = if trace then daemon_metrics ~socket:d.socket ~daemon_samples:samples else [] in
      live := None;
      lifecycle d;
      let after = List.init setup_reps_after (fun _ -> setup_and_stop ()) in
      (* references for the seed pool, outside the timed window: the
         same specs in-process, one domain per client *)
      let refs = par_map clients (reference Daemon_stuckat ~seed) (Array.init pool Fun.id) in
      Array.iter (fun (_, broken) -> problems := broken @ !problems) refs;
      let tally = Stats.tally () in
      check_samples tally ~reference:(fun k -> fst refs.(k)) samples;
      let metrics =
        if trace then
          layer
          @ (cache_ratio samples
            :: trace_metrics ~overhead:(replay_overhead Daemon_stuckat ~seed) samples)
          @ traced_layers Daemon_stuckat ~seed ~problems
        else end_to_end ~setup:(before @ (s :: after)) ~rss:!rss samples t_start
      in
      { metrics; tally; problems = !problems })

(* A short daemon session for validate-cold's traced runs:
   the same op specs over the wire. *)
let daemon_probe w ~simcov ~seed ~problems =
  let d = start_daemon ~simcov in
  Fun.protect
    ~finally:(fun () ->
      match stop_daemon d with Ok () -> () | Error e -> problems := ("daemon " ^ e) :: !problems)
    (fun () ->
      let samples =
        List.concat_map
          (fun i ->
            List.map
              (fun job -> submit_sample ~socket:d.socket ~traced:true i job)
              (op_jobs w (job_seed seed i)))
          [ 0; 1; 2 ]
      in
      List.iter
        (fun s ->
          match s.outcome with
          | Ok _ -> ()
          | Error e -> problems := ("daemon probe: " ^ e) :: !problems)
        samples;
      daemon_metrics ~socket:d.socket ~daemon_samples:samples)

let run_inproc_workload w ~simcov ~seed ~seconds ~trace =
  let problems = ref [] in
  let pool = seed_pool w in
  (* references for the seed pool, outside the timed window and on
     their own caches; first and on one domain, so that the CRC-32
     table is forced before two domains run ops (see [par_map]) *)
  let refs =
    Array.init pool (fun k ->
        let r, broken = reference w ~cache:(Model_cache.create ()) ~seed k in
        problems := broken @ !problems;
        r)
  in
  (* every op is a cold session on a model cache of its own *)
  let exec k = run_jobs ~cache:(Model_cache.create ()) (op_jobs w (job_seed seed k)) in
  (* one setup: one warm-up op on each client's domain at once, as the
     window runs them; a single-domain op swings with the host's load
     far more than two concurrent ones do *)
  let setup i =
    let t0 = now () in
    List.init clients (fun c -> Domain.spawn (fun () -> exec (-1 - (i * clients) - c)))
    |> List.iter (fun d ->
           match Domain.join d with Ok _ -> () | Error e -> failwith ("warm-up op: " ^ e));
    now () -. t0
  in
  let before = List.init setup_reps_before setup in
  let completed = Atomic.make 0 and peaks = ref [] and lock = Mutex.create () in
  reset_vmhwm ();
  let samples, t_start =
    closed_loop ~seconds ~min_ops:(min_ops w) (fun i ->
        let s = inproc_sample ~traced:(traced_op trace ~pool i) (i mod pool) exec in
        if (Atomic.fetch_and_add completed 1 + 1) mod segment = 0 then
          Mutex.protect lock (fun () ->
              peaks := vmhwm_mb "self" :: !peaks;
              reset_vmhwm ());
        s)
  in
  let rss = Stats.median (Array.of_list !peaks) in
  let after = List.init setup_reps_after (fun i -> setup (setup_reps_before + i)) in
  let tally = Stats.tally () in
  check_samples tally ~reference:(fun k -> refs.(k)) samples;
  let metrics =
    if trace then
      daemon_probe w ~simcov ~seed ~problems
      @ (cache_ratio samples :: trace_metrics ~overhead:(trace_overhead samples) samples)
      @ traced_layers w ~seed ~problems
    else end_to_end ~setup:(before @ after) ~rss samples t_start
  in
  { metrics; tally; problems = !problems }

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let simcov = ref "_build/default/bin/simcov.exe" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME one of " ^ String.concat ", " (List.map fst workloads) );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--simcov", Arg.Set_string simcov, "PATH the simcov binary to serve from");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline ("perfbench: unknown workload '" ^ !workload ^ "'");
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "perfbench: --trace is 0 or 1"; exit 2);
  let trace = !trace = 1 in
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let r =
    try
      match w with
      | Daemon_stuckat -> run_daemon_workload ~simcov:!simcov ~seed:!seed ~seconds:!seconds ~trace
      | Validate_cold ->
          run_inproc_workload w ~simcov:!simcov ~seed:!seed ~seconds:!seconds ~trace
    with e ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 2
  in
  (try Unix.rmdir run_dir with Unix.Unix_error _ -> ());
  let r = { r with problems = r.problems @ dlx_campaign_check ~seed:!seed } in
  List.iter (fun (reason, n) -> log "%d ops failed: %s" n reason) r.tally.Stats.reasons;
  List.iter (fun p -> log "check failed: %s" p) r.problems;
  Printf.printf "workload %s seed %d: %d ops, %d failed, error_rate %.4f\n" !workload !seed
    r.tally.Stats.attempted r.tally.Stats.failed (Stats.error_rate r.tally);
  List.iter (fun (n, v, u) -> Printf.printf "  %-32s %14.4f %s\n" n v u) r.metrics;
  let correct = r.tally.Stats.failed = 0 && r.problems = [] in
  print_endline
    (Stats.result_line ~correct r.tally
       (List.map (fun (m_name, m_value, m_unit) -> { Stats.m_name; m_value; m_unit }) r.metrics));
  exit (if correct then 0 else 1)
