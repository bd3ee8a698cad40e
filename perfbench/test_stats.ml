(* The benchmark's own arithmetic: percentile selection, medians and
   quartiles (against values Python's statistics module gives), failure
   counting, span self time and the result record. *)

module Stats = Perfbench.Stats
module Json = Simcov_util.Json

let feq = Alcotest.float 1e-12
let arr l = Array.of_list (List.map float_of_int l)

let test_percentile () =
  let a = arr (List.init 100 (fun i -> 100 - i)) in
  Alcotest.check feq "p50 of 1..100" 50. (Stats.percentile 50 a);
  Alcotest.check feq "p90 of 1..100 leaves ten above" 90. (Stats.percentile 90 a);
  Alcotest.check feq "p100 is the max" 100. (Stats.percentile 100 a);
  Alcotest.check feq "p1 is the min" 1. (Stats.percentile 1 a);
  let b = arr [ 7; 3; 5 ] in
  Alcotest.check feq "p50 of three" 5. (Stats.percentile 50 b);
  Alcotest.check feq "p90 of three rounds the rank up" 7. (Stats.percentile 90 b);
  Alcotest.check feq "single sample" 4. (Stats.percentile 90 (arr [ 4 ]));
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.percentile: needs at least 1 samples")
    (fun () -> ignore (Stats.percentile 50 [||]))

let test_median () =
  Alcotest.check feq "odd" 3. (Stats.median (arr [ 5; 1; 3 ]));
  Alcotest.check feq "even: mean of the middle two" 2.5 (Stats.median (arr [ 4; 1; 3; 2 ]));
  Alcotest.check feq "single" 9. (Stats.median (arr [ 9 ]))

(* expected values from Python: statistics.quantiles(data, n=4) *)
let test_quartiles () =
  let q3 = Alcotest.(triple feq feq feq) in
  Alcotest.check q3 "1..10" (2.75, 5.5, 8.25)
    (Stats.quartiles (arr (List.init 10 (fun i -> i + 1))));
  Alcotest.check q3 "1..9" (2.5, 5., 7.5) (Stats.quartiles (arr (List.init 9 (fun i -> i + 1))));
  Alcotest.check q3 "two points extrapolate" (0.75, 1.5, 2.25) (Stats.quartiles (arr [ 2; 1 ]));
  Alcotest.check q3 "unsorted input" (1.75, 3.5, 5.25)
    (Stats.quartiles (arr [ 6; 1; 4; 2; 5; 3 ]))

let test_segment_rates () =
  (* stretches of 2: [10, 11], (11, 14], (14, 15]; the 7th is dropped *)
  let ends = [| 10.5; 11.; 12.; 14.; 14.5; 15.; 16. |] in
  let amounts = [| 1.; 3.; 2.; 2.; 4.; 0.; 9. |] in
  Alcotest.(check (array feq))
    "faults per second" [| 4.; 4. /. 3.; 4. |]
    (Stats.segment_rates ~size:2 ~t_start:10. ends amounts);
  Alcotest.(check (array feq))
    "ops per second" [| 2.; 2. /. 3.; 2. |]
    (Stats.segment_rates ~size:2 ~t_start:10. ends (Array.make 7 1.));
  Alcotest.(check int) "fewer than one stretch" 0
    (Array.length (Stats.segment_rates ~size:8 ~t_start:10. ends amounts))

let test_tally () =
  let t = Stats.tally () in
  List.iter (Stats.record t)
    [ Ok (); Error "report mismatch"; Ok (); Error "connection: refused"; Error "report mismatch" ];
  Alcotest.(check int) "attempted counts every op" 5 t.Stats.attempted;
  Alcotest.(check int) "failed" 3 t.Stats.failed;
  Alcotest.check feq "error rate" 0.6 (Stats.error_rate t);
  Alcotest.(check int) "mismatches grouped" 2 (List.assoc "report mismatch" t.Stats.reasons);
  Alcotest.(check int) "connection errors" 1 (List.assoc "connection: refused" t.Stats.reasons);
  Alcotest.check feq "nothing attempted is no error" 0. (Stats.error_rate (Stats.tally ()))

let sp name start stop = { Stats.name; start; stop }

let test_self_times () =
  (* methodology.symbolic [0,4] holds one symfsm span [1,2];
     methodology.fsm_campaign [4,9] holds two batches; one top-level
     batch [10,11] *)
  let spans =
    [
      sp "campaign.batch" 5. 6.;
      sp "methodology.symbolic" 0. 4.;
      sp "symfsm.iteration" 1. 2.;
      sp "methodology.fsm_campaign" 4. 9.;
      sp "campaign.batch" 6. 8.5;
      sp "campaign.batch" 10. 11.;
    ]
  in
  let layers, covered = Stats.self_times spans in
  let get l = List.assoc l layers in
  Alcotest.check feq "top level covers 4 + 5 + 1" 10. covered;
  Alcotest.check feq "methodology self" (3. +. 1.5) (get "methodology");
  Alcotest.check feq "campaign self" (1. +. 2.5 +. 1.) (get "campaign");
  Alcotest.check feq "symbolic self" 1. (get "symbolic");
  Alcotest.check feq "self times add up to the covered time" covered
    (List.fold_left (fun a (_, v) -> a +. v) 0. layers);
  Alcotest.(check (list string)) "layers sorted" [ "campaign"; "methodology"; "symbolic" ]
    (List.map fst layers);
  let none, c0 = Stats.self_times [] in
  Alcotest.(check int) "no spans" 0 (List.length none);
  Alcotest.check feq "covers nothing" 0. c0

let test_span_of_event () =
  let ev s = Result.get_ok (Json.parse s) in
  (match Stats.span_of_event (ev {|{"ev":"campaign.batch","t_s":1.5,"dur_s":0.5}|}) with
  | Some s ->
      Alcotest.(check string) "name" "campaign.batch" s.Stats.name;
      Alcotest.check feq "start" 1.0 s.Stats.start;
      Alcotest.check feq "stop" 1.5 s.Stats.stop
  | None -> Alcotest.fail "span expected");
  Alcotest.(check bool) "an event without a duration is no span" true
    (Stats.span_of_event (ev {|{"ev":"job.start","t_s":0.1}|}) = None)

let test_result_line () =
  let t = Stats.tally () in
  Stats.record t (Ok ());
  Stats.record t (Error "x");
  let line =
    Stats.result_line ~correct:false t
      [ { Stats.m_name = "latency_p50_ms"; m_value = 1.25; m_unit = "ms" } ]
  in
  let j = Result.get_ok (Json.parse line) in
  Alcotest.(check (list string)) "exactly four keys" [ "correct"; "attempted"; "failed"; "metrics" ]
    (match j with Json.Obj f -> List.map fst f | _ -> []);
  Alcotest.(check bool) "one line" false (String.contains line '\n');
  Alcotest.(check string) "metric record"
    {|{"value":1.25,"unit":"ms"}|}
    (match Json.member "metrics" j with
    | Some m -> Json.to_string ~indent:0 (Option.get (Json.member "latency_p50_ms" m))
    | None -> "")

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile selection" `Quick test_percentile;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "segment rates" `Quick test_segment_rates;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "failure counting" `Quick test_tally;
          Alcotest.test_case "span self time" `Quick test_self_times;
          Alcotest.test_case "span of a trace event" `Quick test_span_of_event;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
    ]
