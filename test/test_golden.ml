(* Reports pinned byte for byte. The files under golden/ were captured
   from the CLI before the BDD kernel's probes and the fault-structural
   pass were rewritten for allocation:

   - lint_fsm_dlx.json: [simcov lint --fsm dlx --json];
   - validate_dlx.json: [simcov validate-dlx --json], with the
     wall-clock [timings] member replaced by null;
   - stats_counters.json: the deterministic work counters of
     [simcov stats --metrics FILE] — BDD unique-table and op-cache
     hits and misses, symbolic images and iterations, and the
     [bdd.nodes.peak] gauge;
   - fsm_dlx_count{20,150,600}.json: [simcov coverage dlx --faults fsm
     --count N --json], captured while FSM campaigns still ran 63-lane
     batches by default. Their 40, 300 and 1200 faults now run at the
     three kinds of width the lane rule picks: the native word, one
     300-lane batch, and two batches at the 1024-lane cap.

   Each job runs through the service (what the CLI runs) on a cold
   model cache under a registry of its own. *)

module Json = Simcov_util.Json
module Obs = Simcov_obs.Obs
module Job = Simcov_service.Job
module Service = Simcov_service.Service
module Model_cache = Simcov_service.Model_cache

(* cwd is test/ under `dune runtest`, the workspace root under
   `dune exec` *)
let golden name =
  match
    List.find_opt Sys.file_exists
      [ Filename.concat "golden" name; Filename.concat "test/golden" name ]
  with
  | Some p -> In_channel.with_open_bin p In_channel.input_all
  | None -> Alcotest.failf "golden file %s not found" name

(* run [spec] cold, returning its report and the registry's snapshot *)
let run_cold spec =
  let r = Obs.registry ~label:"golden" in
  Fun.protect ~finally:(fun () -> Obs.release r) @@ fun () ->
  Obs.with_registry r (fun () ->
      let out = Service.run ~cache:(Model_cache.create ()) (Job.make spec) in
      match out.Service.report with
      | Some report -> (report, Obs.snapshot ())
      | None -> Alcotest.fail "the job produced no report")

let check_bytes name actual =
  let expected = golden name in
  if actual <> expected then
    Alcotest.failf "%s differs from the pinned report:\n%s" name actual

let test_lint_fsm_dlx () =
  let report, _ =
    run_cold (Job.Lint { (Job.default_lint ~model:"dlx") with Job.li_fsm = true })
  in
  check_bytes "lint_fsm_dlx.json" (Json.to_string report ^ "\n")

let test_validate_dlx () =
  let report, _ = run_cold (Job.Validate_dlx Job.default_validate) in
  let masked =
    match report with
    | Json.Obj fields ->
        Json.Obj
          (List.map (fun (k, v) -> if k = "timings" then (k, Json.Null) else (k, v)) fields)
    | j -> j
  in
  check_bytes "validate_dlx.json" (Json.to_string masked ^ "\n")

let deterministic_counter name =
  List.exists
    (fun p -> String.starts_with ~prefix:p name)
    [ "bdd.unique."; "bdd.cache." ]
  || name = "symfsm.images" || name = "symfsm.iterations"

let test_stats_counters () =
  let _, snap = run_cold (Job.Stats Job.default_stats) in
  let section key keep =
    match Json.member key snap with
    | Some (Json.Obj fields) -> Json.Obj (List.filter (fun (k, _) -> keep k) fields)
    | _ -> Alcotest.failf "snapshot has no %s" key
  in
  let pinned =
    Json.Obj
      [
        ("counters", section "counters" deterministic_counter);
        ("gauges", section "gauges" (String.equal "bdd.nodes.peak"));
      ]
  in
  check_bytes "stats_counters.json" (Json.to_string pinned ^ "\n")

let test_fsm_campaigns () =
  List.iter
    (fun count ->
      let report, _ =
        run_cold
          (Job.Coverage { (Job.default_coverage ~model:"dlx") with Job.cov_count = count })
      in
      check_bytes
        (Printf.sprintf "fsm_dlx_count%d.json" count)
        (Json.to_string report ^ "\n"))
    [ 20; 150; 600 ]

let suite =
  [
    Alcotest.test_case "lint --fsm dlx report" `Quick test_lint_fsm_dlx;
    Alcotest.test_case "validate-dlx report" `Quick test_validate_dlx;
    Alcotest.test_case "stats work counters" `Quick test_stats_counters;
    Alcotest.test_case "fsm campaign reports at every lane width" `Quick
      test_fsm_campaigns;
  ]
