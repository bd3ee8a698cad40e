(* The observability layer: metric registry semantics, the
   simcov-metrics/1 snapshot, trace sinks, and the counters' agreement
   with the engines' own statistics. Every test resets the global
   registry first — metrics are process-wide by design. *)

module Obs = Simcov_obs.Obs
module Json = Simcov_util.Json
module Budget = Simcov_util.Budget
module Bdd = Simcov_bdd.Bdd

let get_int json path =
  let rec go json = function
    | [] -> Json.to_int_opt json
    | k :: rest -> Option.bind (Json.member k json) (fun v -> go v rest)
  in
  match go json path with
  | Some v -> v
  | None -> Alcotest.failf "missing int at %s" (String.concat "." path)

let test_registry_create_on_first_use () =
  Obs.reset ();
  let c1 = Obs.counter "test.counter" in
  let c2 = Obs.counter "test.counter" in
  Alcotest.(check bool) "same cell" true (c1 == c2);
  Obs.incr c1;
  Obs.add c1 4;
  Alcotest.(check int) "visible through alias" 5 (Obs.count c2);
  let g = Obs.gauge "test.gauge" in
  Obs.set g 7;
  Obs.set_max g 3;
  Alcotest.(check int) "set_max keeps maximum" 7 (Obs.value g);
  Obs.set_max g 11;
  Alcotest.(check int) "set_max raises" 11 (Obs.value g)

let test_snapshot_schema () =
  Obs.reset ();
  let c = Obs.counter "test.snap.counter" in
  let g = Obs.gauge "test.snap.gauge" in
  let t = Obs.timer "test.snap.timer" in
  Obs.add c 42;
  Obs.set g 9;
  Obs.observe t 0.25;
  Obs.observe t 0.5;
  (* the snapshot must round-trip through its own JSON renderer *)
  let json =
    match Json.parse (Json.to_string (Obs.snapshot ())) with
    | Ok v -> v
    | Error e -> Alcotest.failf "snapshot is not valid JSON: %s" e
  in
  Alcotest.(check bool)
    "schema tag" true
    (Json.member "schema" json = Some (Json.String "simcov-metrics/1"));
  Alcotest.(check bool) "wall clock present" true
    (Json.member "wall_clock_s" json <> None);
  Alcotest.(check int) "counter value" 42 (get_int json [ "counters"; "test.snap.counter" ]);
  Alcotest.(check int) "gauge value" 9 (get_int json [ "gauges"; "test.snap.gauge" ]);
  Alcotest.(check int) "timer span count" 2
    (get_int json [ "timers"; "test.snap.timer"; "count" ]);
  (* instrumented-engine metrics are registered at module init, so they
     appear (at zero) in every snapshot: the field set is stable *)
  List.iter
    (fun name -> ignore (get_int json [ "counters"; name ]))
    [
      "bdd.cache.and.hit"; "bdd.cache.and.miss"; "bdd.cache.or.hit";
      "bdd.cache.xor.hit"; "bdd.cache.not.hit"; "bdd.cache.ite.hit";
      "bdd.unique.hit"; "bdd.unique.miss"; "bdd.gc.runs"; "bdd.gc.reclaimed";
      "symfsm.iterations"; "symfsm.images"; "campaign.batches";
      "campaign.sim_steps"; "campaign.faults_evaluated";
      "campaign.lanes_diverged";
    ];
  Obs.reset ();
  Alcotest.(check int) "reset zeroes counters" 0
    (get_int (Obs.snapshot ()) [ "counters"; "test.snap.counter" ])

let test_trace_sink () =
  Obs.reset ();
  let lines = ref [] in
  Obs.set_sink (Some (fun l -> lines := l :: !lines));
  Alcotest.(check bool) "tracing on" true (Obs.tracing ());
  Obs.event "test.ev" ~fields:(fun () -> [ ("k", Json.Int 3) ]);
  let tm = Obs.timer "test.trace.span" in
  let r = Obs.span tm (fun () -> 17) in
  Alcotest.(check int) "span returns" 17 r;
  Obs.set_sink None;
  Alcotest.(check bool) "tracing off" false (Obs.tracing ());
  (* fields thunk must not run without a sink *)
  Obs.event "test.silent" ~fields:(fun () -> Alcotest.fail "fields forced");
  let parsed =
    List.rev_map
      (fun l ->
        match Json.parse l with
        | Ok v -> v
        | Error e -> Alcotest.failf "trace line is not JSON: %s" e)
      !lines
  in
  Alcotest.(check int) "two events" 2 (List.length parsed);
  (match parsed with
  | [ ev; sp ] ->
      Alcotest.(check bool) "ev name" true
        (Json.member "ev" ev = Some (Json.String "test.ev"));
      Alcotest.(check int) "ev field" 3 (get_int ev [ "k" ]);
      Alcotest.(check bool) "span name" true
        (Json.member "ev" sp = Some (Json.String "test.trace.span"));
      Alcotest.(check bool) "span duration" true (Json.member "dur_s" sp <> None)
  | _ -> Alcotest.fail "expected exactly the two traced events");
  Alcotest.(check int) "span observed" 1 (Obs.spans tm)

let test_span_observes_on_raise () =
  Obs.reset ();
  let tm = Obs.timer "test.raise.span" in
  (try Obs.span tm (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "span recorded despite raise" 1 (Obs.spans tm)

(* ---- BDD counters vs the manager's own statistics ---- *)

let test_bdd_counters_match_gc_stats () =
  Obs.reset ();
  let m = Bdd.man 8 in
  let f =
    Bdd.conj m (List.init 8 (fun v -> Bdd.var m v)) |> Bdd.protect m
  in
  let g = Bdd.protect m (Bdd.disj m (List.init 8 (fun v -> Bdd.nvar m v))) in
  ignore (Bdd.band m f g);
  ignore (Bdd.bxor m f g);
  ignore (Bdd.bnot m f);
  ignore (Bdd.gc m);
  let st = Bdd.gc_stats m in
  let snap = Obs.snapshot () in
  Alcotest.(check int) "gc runs" st.Bdd.runs (get_int snap [ "counters"; "bdd.gc.runs" ]);
  Alcotest.(check int) "gc reclaimed" st.Bdd.reclaimed
    (get_int snap [ "counters"; "bdd.gc.reclaimed" ]);
  Alcotest.(check int) "live gauge" st.Bdd.live
    (get_int snap [ "gauges"; "bdd.nodes.live" ]);
  Alcotest.(check int) "peak gauge" st.Bdd.peak_live
    (get_int snap [ "gauges"; "bdd.nodes.peak" ]);
  (* every live node was once a unique-table miss *)
  Alcotest.(check bool) "unique misses cover peak" true
    (get_int snap [ "counters"; "bdd.unique.miss" ] >= st.Bdd.peak_live)

let test_symfsm_counters_match_traversal () =
  Obs.reset ();
  let model =
    Simcov_fsm.Fsm.tabulate
      (Simcov_fsm.Fsm.make ~n_states:6 ~n_inputs:2
         ~next:(fun s i -> if i = 0 then (s + 1) mod 6 else 0)
         ~output:(fun s i -> if i = 0 then s else 0)
         ())
  in
  let sym = Simcov_symbolic.Symfsm.of_fsm model in
  let tr = Simcov_symbolic.Symfsm.traverse sym in
  let snap = Obs.snapshot () in
  Alcotest.(check int) "iterations counter" tr.Simcov_symbolic.Symfsm.iterations
    (get_int snap [ "counters"; "symfsm.iterations" ]);
  Alcotest.(check int) "images counter" tr.Simcov_symbolic.Symfsm.images
    (get_int snap [ "counters"; "symfsm.images" ]);
  Alcotest.(check int) "iteration timer spans" tr.Simcov_symbolic.Symfsm.iterations
    (get_int snap [ "timers"; "symfsm.iteration"; "count" ])

(* ---- campaign progress invariants ---- *)

let test_campaign_progress_invariants () =
  Obs.reset ();
  let open Simcov_fsm in
  let model =
    Fsm.tabulate
      (Fsm.make ~n_states:5 ~n_inputs:2
         ~next:(fun s i -> if i = 0 then (s + 1) mod 5 else 0)
         ~output:(fun s i -> if i = 0 then s else s + 1)
         ())
  in
  let word =
    match Simcov_testgen.Tour.transition_tour model with
    | Some t -> t.Simcov_testgen.Tour.word
    | None -> Alcotest.fail "expected tour"
  in
  let rng = Simcov_util.Rng.create 7 in
  let faults =
    Simcov_coverage.Fault.sample_transfer_faults rng model ~count:100
    @ Simcov_coverage.Fault.sample_output_faults rng model ~n_outputs:6 ~count:100
  in
  let seen = ref [] in
  let r =
    Simcov_coverage.Detect.campaign
      ~on_batch:(fun p -> seen := p :: !seen)
      model faults word
  in
  let progresses = List.rev !seen in
  Alcotest.(check bool) "at least one batch" true (progresses <> []);
  let module C = Simcov_campaign.Campaign in
  List.iteri
    (fun i (p : C.progress) ->
      Alcotest.(check int) "batch index is sequential" i p.C.batch;
      Alcotest.(check bool) "faults_done <= faults_total" true
        (p.C.faults_done <= p.C.faults_total);
      Alcotest.(check bool) "detected <= faults_done" true
        (p.C.detected_so_far <= p.C.faults_done);
      Alcotest.(check bool) "elapsed_s >= 0" true (p.C.elapsed_s >= 0.0))
    progresses;
  let rec monotone extract = function
    | a :: (b :: _ as rest) ->
        extract (a : C.progress) <= extract (b : C.progress) && monotone extract rest
    | _ -> true
  in
  Alcotest.(check bool) "faults_done monotone" true
    (monotone (fun p -> p.C.faults_done) progresses);
  Alcotest.(check bool) "detected monotone" true
    (monotone (fun p -> p.C.detected_so_far) progresses);
  Alcotest.(check bool) "sim_steps monotone" true
    (monotone (fun p -> p.C.sim_steps) progresses);
  (* the last progress report accounts for every evaluated fault *)
  (match List.rev progresses with
  | last :: _ ->
      Alcotest.(check int) "final faults_done = effective"
        r.Simcov_coverage.Detect.effective last.C.faults_done
  | [] -> ());
  (* and the global counters agree with the report *)
  let snap = Obs.snapshot () in
  Alcotest.(check int) "faults_evaluated counter"
    r.Simcov_coverage.Detect.effective
    (get_int snap [ "counters"; "campaign.faults_evaluated" ]);
  Alcotest.(check int) "batches counter" (List.length progresses)
    (get_int snap [ "counters"; "campaign.batches" ])

(* ---- domain safety: no lost updates under concurrent increments ---- *)

let test_domain_hammer () =
  Obs.reset ();
  let c = Obs.counter "test.domains.counter" in
  let g = Obs.gauge "test.domains.gauge" in
  let tm = Obs.timer "test.domains.timer" in
  let iters = 200_000 in
  let worker lo =
    for i = lo to lo + iters - 1 do
      Obs.incr c;
      Obs.set_max g i;
      if i mod 50_000 = 0 then Obs.observe tm 0.001
    done
  in
  let d = Domain.spawn (fun () -> worker iters) in
  worker 0;
  Domain.join d;
  (* every increment from both domains must land: counters are atomic,
     not last-writer-wins *)
  Alcotest.(check int) "no lost increments" (2 * iters) (Obs.count c);
  Alcotest.(check int) "set_max keeps the global maximum"
    ((2 * iters) - 1) (Obs.value g);
  Alcotest.(check int) "mutex-guarded timer lost no spans" 8 (Obs.spans tm);
  (* and the merged snapshot reflects the final state *)
  let snap = Obs.snapshot () in
  Alcotest.(check int) "snapshot agrees" (2 * iters)
    (get_int snap [ "counters"; "test.domains.counter" ])

(* ---- the budget's secondary node enforcement (fake probe) ---- *)

let test_budget_node_probe () =
  let b = Budget.create ~max_nodes:10 () in
  Alcotest.(check bool) "no probe, no reading" true (Budget.live_nodes b = None);
  Alcotest.(check bool) "no probe, never Nodes" true (Budget.exceeded b = None);
  let reading = ref 5 in
  Budget.set_node_probe b (Some (fun () -> !reading));
  Alcotest.(check bool) "probe visible" true (Budget.live_nodes b = Some 5);
  Alcotest.(check bool) "below cap" true (Budget.exceeded b = None);
  reading := 10;
  (* at the cap is fine: the primary enforcer (a BDD manager) holds the
     live count AT its ceiling, which must not read as exhaustion *)
  Alcotest.(check bool) "at cap" true (Budget.exceeded b = None);
  reading := 11;
  Alcotest.(check bool) "above cap" true (Budget.exceeded b = Some Budget.Nodes);
  (match Budget.check b with
  | exception Budget.Budget_exceeded Budget.Nodes -> ()
  | _ -> Alcotest.fail "check must raise Nodes");
  Budget.set_node_probe b None;
  Alcotest.(check bool) "probe cleared" true (Budget.exceeded b = None);
  (* the shared unlimited singleton must stay stateless *)
  Budget.set_node_probe Budget.unlimited (Some (fun () -> 1_000_000));
  Alcotest.(check bool) "unlimited ignores probes" true
    (Budget.live_nodes Budget.unlimited = None)

(* The overhead contract: a bump on a resolved cell allocates nothing,
   under a scoped registry too (its cell sits behind the default one in
   the handle's resolution list). *)
let test_bumps_allocate_nothing () =
  let c = Obs.counter "test.alloc.counter" in
  let g = Obs.gauge "test.alloc.gauge" in
  let r = Obs.registry ~label:"alloc" in
  Fun.protect ~finally:(fun () -> Obs.release r) @@ fun () ->
  Obs.with_registry r (fun () ->
      (* resolve the cells first: creating one takes the lock *)
      Obs.incr c;
      Obs.set g 0;
      let w0 = Gc.minor_words () in
      for i = 1 to 10_000 do
        Obs.incr c;
        Obs.add c 2;
        Obs.set g i;
        Obs.set_max g (i + 1)
      done;
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check (float 0.)) "minor words for 40k bumps" 0. words;
      Alcotest.(check int) "counter" 30_001 (Obs.count c);
      Alcotest.(check int) "gauge" 10_001 (Obs.value g))

(* The kernel counts into its manager and flushes when the outermost
   public operation exits: a snapshot between operations must show
   every probe of the operations before it, also when one raised. *)
let test_bdd_counters_flushed_per_operation () =
  let r = Obs.registry ~label:"flush" in
  Fun.protect ~finally:(fun () -> Obs.release r) @@ fun () ->
  Obs.with_registry r (fun () ->
      let miss () = get_int (Obs.snapshot ()) [ "counters"; "bdd.unique.miss" ] in
      let and_miss () =
        get_int (Obs.snapshot ()) [ "counters"; "bdd.cache.and.miss" ]
      in
      let m = Bdd.man 8 in
      let vs = List.init 8 (fun v -> Bdd.var m v) in
      Alcotest.(check int) "one node per literal" 8 (miss ());
      Alcotest.(check int) "live gauge after literals" 8
        (get_int (Obs.snapshot ()) [ "gauges"; "bdd.nodes.live" ]);
      let f = Bdd.conj m vs in
      Alcotest.(check int) "nodes created by conj" (Bdd.gc_stats m).Bdd.live (miss ());
      Alcotest.(check bool) "and-cache misses visible" true (and_miss () > 0);
      let before = and_miss () in
      ignore (Bdd.band m f f);
      Alcotest.(check int) "a == b takes no probe" before (and_miss ());
      (* an operation cut short by the node ceiling still reports the
         probes it made *)
      let xor_miss () =
        get_int (Obs.snapshot ()) [ "counters"; "bdd.cache.xor.miss" ]
      in
      let small = Bdd.man ~max_nodes:2 2 in
      let x0 = Bdd.var small 0 and x1 = Bdd.var small 1 in
      let misses = xor_miss () in
      (match Bdd.bxor small x0 x1 with
      | _ -> Alcotest.fail "expected the node ceiling"
      | exception Bdd.Node_limit _ -> ());
      Alcotest.(check int) "probes of the failed op flushed" (misses + 1)
        (xor_miss ()))

(* [bdd.nodes.peak] is a per-registry running maximum: a manager shared
   by two registries (the daemon's model cache does this) raises each
   one only to the live counts reached while it was current. *)
let test_bdd_peak_gauge_per_registry () =
  let m = Bdd.man 12 in
  let a = Obs.registry ~label:"job-a" and b = Obs.registry ~label:"job-b" in
  Fun.protect ~finally:(fun () -> Obs.release a; Obs.release b) @@ fun () ->
  let peak_of r =
    Obs.with_registry r (fun () ->
        get_int (Obs.snapshot ()) [ "gauges"; "bdd.nodes.peak" ])
  in
  Obs.with_registry a (fun () ->
      (* a large unrooted function, then swept *)
      let big =
        Bdd.disj m
          (List.init 6 (fun i -> Bdd.band m (Bdd.var m (2 * i)) (Bdd.var m ((2 * i) + 1))))
      in
      ignore (Bdd.bxor m big (Bdd.var m 0));
      ignore (Bdd.gc m));
  let peak_a = peak_of a in
  Alcotest.(check int) "job a saw the manager's peak" (Bdd.gc_stats m).Bdd.peak_live peak_a;
  Obs.with_registry b (fun () -> ignore (Bdd.band m (Bdd.var m 0) (Bdd.var m 1)));
  let live = (Bdd.gc_stats m).Bdd.live in
  Alcotest.(check bool) "the sweep shrank the manager" true (live < peak_a);
  Alcotest.(check int) "job b's peak is its own window's" live (peak_of b);
  Alcotest.(check int) "job a's peak untouched" peak_a (peak_of a)

let suite =
  [
    Alcotest.test_case "registry create-on-first-use" `Quick
      test_registry_create_on_first_use;
    Alcotest.test_case "snapshot schema" `Quick test_snapshot_schema;
    Alcotest.test_case "trace sink" `Quick test_trace_sink;
    Alcotest.test_case "span observes on raise" `Quick test_span_observes_on_raise;
    Alcotest.test_case "bdd counters match gc_stats" `Quick
      test_bdd_counters_match_gc_stats;
    Alcotest.test_case "symfsm counters match traversal" `Quick
      test_symfsm_counters_match_traversal;
    Alcotest.test_case "campaign progress invariants" `Quick
      test_campaign_progress_invariants;
    Alcotest.test_case "two-domain counter hammer" `Quick test_domain_hammer;
    Alcotest.test_case "budget node probe" `Quick test_budget_node_probe;
    Alcotest.test_case "bumps allocate nothing" `Quick test_bumps_allocate_nothing;
    Alcotest.test_case "bdd counters flushed per operation" `Quick
      test_bdd_counters_flushed_per_operation;
    Alcotest.test_case "bdd peak gauge per registry" `Quick
      test_bdd_peak_gauge_per_registry;
  ]
