(* FSM static analysis: golden machines with known defects, and QCheck
   properties tying the lint verdicts to the ground-truth algorithms
   (minimization, fault simulation) they are meant to predict. *)

open Simcov_fsm
open Simcov_testgen
open Simcov_analysis
module Budget = Simcov_util.Budget
module Json = Simcov_util.Json
module Rng = Simcov_util.Rng
module Detect = Simcov_coverage.Detect

let has code r = List.exists (fun d -> d.Diag.code = code) r.Fsm_lint.diags
let diag code r = List.find (fun d -> d.Diag.code = code) r.Fsm_lint.diags

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ---- golden machines ---- *)

(* minimal, strongly connected, total: the clean baseline *)
let counter3 =
  Fsm.make ~n_states:3 ~n_inputs:2
    ~next:(fun s i -> if i = 0 then (s + 1) mod 3 else 0)
    ~output:(fun s i -> if i = 0 then (s + 1) mod 3 else s)
    ()

(* states 1 and 2 are behaviorally identical: SA620 *)
let nonminimal =
  Fsm.of_table
    [ (0, 0, 1, 0); (0, 1, 2, 0); (1, 0, 0, 1); (2, 0, 0, 1) ]

(* state 1 is a sink with a self-loop: reachable but no way back, SA610 *)
let oneway = Fsm.of_table [ (0, 0, 1, 0); (1, 0, 1, 1) ]

(* state 1 is reachable and accepts no input at all: SA601 (and SA610) *)
let deadend = Fsm.of_table [ (0, 0, 1, 0) ]

(* state 1 appears only as a source: SA602 unreachable *)
let unreachable = Fsm.of_table [ (0, 0, 0, 0); (1, 0, 0, 1) ]

(* input 1 is valid nowhere (alphabet inferred from the max index): SA603 *)
let dead_input = Fsm.of_table [ (0, 0, 0, 0); (0, 2, 0, 1) ]

let test_clean_machine () =
  let r = Fsm_lint.run ~name:"counter3" counter3 in
  Alcotest.(check int) "no errors" 0 (Fsm_lint.count r Diag.Error);
  Alcotest.(check bool) "passes --fail-on error" false
    (Fsm_lint.fails r ~threshold:Diag.Error);
  Alcotest.(check int) "one SCC" 1 r.Fsm_lint.stats.Fsm_lint.n_sccs;
  Alcotest.(check int) "3 classes" 3 r.Fsm_lint.stats.Fsm_lint.n_classes;
  (match r.Fsm_lint.stats.Fsm_lint.certified_k with
  | None -> Alcotest.fail "expected a certified k"
  | Some k -> Alcotest.(check bool) "certified k positive" true (k >= 1));
  Alcotest.(check bool) "SA630 certificate present" true (has "SA630" r);
  Alcotest.(check (list string)) "nothing skipped" [] r.Fsm_lint.skipped;
  Alcotest.(check bool) "all passes ran" true
    (List.mem "fault-structural" r.Fsm_lint.passes)

let test_disconnected () =
  let r = Fsm_lint.run ~name:"oneway" oneway in
  Alcotest.(check bool) "SA610 reported" true (has "SA610" r);
  Alcotest.(check bool) "fails --fail-on error" true
    (Fsm_lint.fails r ~threshold:Diag.Error);
  Alcotest.(check int) "two SCCs" 2 r.Fsm_lint.stats.Fsm_lint.n_sccs;
  (* the witness names a condensation cut edge *)
  let d = diag "SA610" r in
  Alcotest.(check bool) "cut-edge witness" true
    (List.exists (contains ~sub:"no way back") d.Diag.related);
  (* no tour exists, so the fault-structural pass cannot run *)
  Alcotest.(check bool) "fault-structural not claimed" false
    (List.mem "fault-structural" r.Fsm_lint.passes)

let test_nonminimal () =
  let r = Fsm_lint.run ~name:"nonminimal" nonminimal in
  Alcotest.(check bool) "SA620 reported" true (has "SA620" r);
  Alcotest.(check int) "2 classes over 3 states" 2
    r.Fsm_lint.stats.Fsm_lint.n_classes;
  Alcotest.(check bool) "no certified k" true
    (r.Fsm_lint.stats.Fsm_lint.certified_k = None);
  (* ∀k can never hold with an equivalent pair: the pass is skipped,
     not silently absent *)
  Alcotest.(check bool) "distinguishability skipped" true
    (List.mem "distinguishability" r.Fsm_lint.skipped)

let test_well_formedness_codes () =
  let r = Fsm_lint.run deadend in
  Alcotest.(check bool) "SA601 dead end" true (has "SA601" r);
  Alcotest.(check bool) "SA610 too" true (has "SA610" r);
  let r = Fsm_lint.run unreachable in
  Alcotest.(check bool) "SA602 unreachable" true (has "SA602" r);
  Alcotest.(check bool) "warning only" false
    (Fsm_lint.fails r ~threshold:Diag.Error);
  let r = Fsm_lint.run dead_input in
  Alcotest.(check bool) "SA603 dead input" true (has "SA603" r);
  (* of_table machines are rarely completely specified *)
  let r = Fsm_lint.run nonminimal in
  Alcotest.(check bool) "SA605 partial spec" true (has "SA605" r)

let test_suite_cover () =
  (* words for counter3: [0;0;0] covers the increment cycle, [1] the
     reset from 0; the repeat adds nothing and the reset edges from
     states 1 and 2 stay uncovered *)
  let suite = [ [ 0; 0; 0 ]; [ 1 ]; [ 0; 0; 0 ] ] in
  let r = Fsm_lint.run ~suite counter3 in
  match r.Fsm_lint.suite with
  | None -> Alcotest.fail "suite report expected"
  | Some s ->
      Alcotest.(check int) "3 words" 3 s.Fsm_lint.n_words;
      Alcotest.(check int) "4 of 6 transitions" 4 s.Fsm_lint.suite_transitions;
      Alcotest.(check (list int)) "word 2 redundant" [ 2 ] s.Fsm_lint.redundant;
      Alcotest.(check (list (pair int int)))
        "missed resets" [ (1, 1); (2, 1) ]
        (List.sort compare s.Fsm_lint.missed);
      Alcotest.(check bool) "SA651 missed transitions" true (has "SA651" r);
      Alcotest.(check bool) "SA652 redundant word" true (has "SA652" r)

let test_suite_invalid_word () =
  (* input 1 is invalid in state 1 of [nonminimal]: the word dies there
     and only its executable prefix counts (matching Detect) *)
  let r = Fsm_lint.run ~suite:[ [ 0; 1 ] ] nonminimal in
  Alcotest.(check bool) "SA650 invalid input" true (has "SA650" r);
  match r.Fsm_lint.suite with
  | None -> Alcotest.fail "suite report expected"
  | Some s ->
      Alcotest.(check int) "prefix covers 1 transition" 1
        s.Fsm_lint.suite_transitions

let test_budget_skip () =
  let budget = Budget.create ~max_steps:2 () in
  let r = Fsm_lint.run ~budget ~suite:[ [ 0 ] ] counter3 in
  Alcotest.(check bool) "truncated" true (r.Fsm_lint.truncated <> None);
  Alcotest.(check bool) "skipped recorded" true (r.Fsm_lint.skipped <> []);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "%s not both run and skipped" p)
        false
        (List.mem p r.Fsm_lint.passes))
    r.Fsm_lint.skipped

let test_json_round_trip () =
  List.iter
    (fun (name, suite, m) ->
      let r = Fsm_lint.run ~name ?suite m in
      let text = Json.to_string (Fsm_lint.to_json r) in
      match Json.parse text with
      | Error e -> Alcotest.failf "%s does not re-parse: %s" name e
      | Ok j -> (
          match Fsm_lint.of_json j with
          | Error e -> Alcotest.failf "%s schema mismatch: %s" name e
          | Ok r' ->
              Alcotest.(check bool)
                (Printf.sprintf "%s identical after round trip" name)
                true (r = r')))
    [
      ("counter3", Some [ [ 0; 0; 0 ]; [ 1 ] ], counter3);
      ("oneway", None, oneway);
      ("nonminimal", None, nonminimal);
    ]

(* ---- generator gates (Precheck and the *_checked variants) ---- *)

let test_precheck_refusals () =
  (match Tour.transition_tour_checked oneway with
  | Ok _ -> Alcotest.fail "tour on a disconnected machine"
  | Error r -> Alcotest.(check string) "SA610 refusal" "SA610" r.Precheck.code);
  (match Wmethod.suite_checked nonminimal with
  | Ok _ -> Alcotest.fail "W-suite on a non-minimal machine"
  | Error r -> Alcotest.(check string) "SA620 refusal" "SA620" r.Precheck.code);
  (match Uio.checking_sequence_checked oneway with
  | Ok _ -> Alcotest.fail "checking sequence on a disconnected machine"
  | Error r -> Alcotest.(check string) "SA610 first" "SA610" r.Precheck.code);
  (* clean machines sail through, and the checked result matches the
     unchecked generator *)
  (match Tour.transition_tour_checked counter3 with
  | Error r -> Alcotest.failf "refused clean machine: %s" r.Precheck.reason
  | Ok t ->
      Alcotest.(check bool) "same tour as unchecked" true
        (Some t.Tour.word
        = Option.map (fun t -> t.Tour.word) (Tour.transition_tour counter3)));
  match Wmethod.suite_checked counter3 with
  | Error r -> Alcotest.failf "refused clean machine: %s" r.Precheck.reason
  | Ok words ->
      Alcotest.(check bool) "same suite as unchecked" true
        (words = Wmethod.suite counter3)

(* ---- QCheck properties ---- *)

(* duplicate the reset state (clone its rows, redirect one incoming
   transition onto the clone): minimization must always catch it. The
   reset state is the one state that stays reachable no matter which
   incoming edge the redirect steals. *)
let clone_state (m : Fsm.t) s =
  let n = m.Fsm.n_states in
  let p, pi, _, _ =
    List.find (fun (_, _, nx, _) -> nx = s) (Fsm.transitions m)
  in
  Fsm.make ~n_states:(n + 1) ~n_inputs:m.Fsm.n_inputs ~reset:m.Fsm.reset
    ~valid:(fun st i -> m.Fsm.valid (if st = n then s else st) i)
    ~next:(fun st i ->
      if st = n then m.Fsm.next s i
      else if st = p && i = pi then n
      else m.Fsm.next st i)
    ~output:(fun st i -> m.Fsm.output (if st = n then s else st) i)
    ()

let qcheck_minimized_is_minimal =
  QCheck.Test.make ~name:"fsm_lint: minimized machine lints minimal" ~count:60
    QCheck.(triple (int_range 2 10) (int_range 1 3) (int_range 1 999))
    (fun (n, k, seed) ->
      let n = max 2 n and k = max 1 k and seed = max 1 seed in
      let rng = Rng.create seed in
      let m = Fsm.random_connected rng ~n_states:n ~n_inputs:k ~n_outputs:2 in
      let q, _ = Fsm.minimize m in
      let r = Fsm_lint.run q in
      (not (has "SA620" r))
      && r.Fsm_lint.stats.Fsm_lint.n_classes
         = r.Fsm_lint.stats.Fsm_lint.n_reachable)

let qcheck_duplicate_state_caught =
  QCheck.Test.make ~name:"fsm_lint: duplicated state always flagged SA620"
    ~count:60
    QCheck.(triple (int_range 2 8) (int_range 1 3) (int_range 1 999))
    (fun (n, k, seed) ->
      let n = max 2 n and k = max 1 k and seed = max 1 seed in
      let rng = Rng.create seed in
      let m = Fsm.random_connected rng ~n_states:n ~n_inputs:k ~n_outputs:2 in
      let m' = clone_state m m.Fsm.reset in
      let r = Fsm_lint.run m' in
      has "SA620" r
      && r.Fsm_lint.stats.Fsm_lint.certified_k = None
      && Precheck.minimal m' <> Ok ())

let qcheck_suite_cover_matches_simulation =
  (* the suite-cover pass predicts coverage by graph walk; it must
     agree exactly with Detect.transitions_covered, including the
     die-at-first-invalid-input semantics *)
  QCheck.Test.make
    ~name:"fsm_lint: predicted suite coverage = simulated coverage" ~count:60
    QCheck.(
      quad (int_range 2 8) (int_range 1 3) (int_range 1 999)
        (list_of_size Gen.(1 -- 5) (list_of_size Gen.(0 -- 12) (int_bound 3))))
    (fun (n, k, seed, words) ->
      let n = max 2 n and k = max 1 k and seed = max 1 seed in
      let rng = Rng.create seed in
      let m = Fsm.random_connected rng ~n_states:n ~n_inputs:k ~n_outputs:2 in
      (* clamp symbols into the alphabet: random_connected machines are
         total with a permissive [valid], so an out-of-range symbol is
         an array overflow, not an invalid input (the invalid-input
         path is covered by the golden of_table test above) *)
      let words = List.map (List.map (fun i -> i mod k)) words in
      let r = Fsm_lint.run ~suite:words m in
      match r.Fsm_lint.suite with
      | None -> false
      | Some s ->
          let simulated =
            List.sort_uniq compare
              (List.concat_map (Detect.transitions_covered m) words)
          in
          let predicted =
            List.filter
              (fun (st, i, _, _) -> not (List.mem (st, i) s.Fsm_lint.missed))
              (Fsm.transitions m)
            |> List.map (fun (st, i, _, _) -> (st, i))
          in
          simulated = predicted
          && List.length simulated = s.Fsm_lint.suite_transitions)

(* ---- Requirement 1 (SA640) ---- *)

(* The tuple-keyed R1 pass the int-keyed one replaced, kept as its
   oracle: per transition, filter the graph predecessors of its source
   state against the (site, predecessor) contexts the word exercised. *)
let r1_oracle (m : Fsm.t) word =
  let transitions = Fsm.transitions m in
  let contexts = Hashtbl.create 256 in
  let prev = ref None in
  let s = ref m.Fsm.reset in
  List.iter
    (fun i ->
      if m.Fsm.valid !s i then begin
        (match !prev with
        | Some p -> Hashtbl.replace contexts ((!s, i), p) ()
        | None -> ());
        prev := Some (!s, i);
        s := m.Fsm.next !s i
      end)
    word;
  let incoming = Hashtbl.create 64 in
  List.iter
    (fun (s, i, s', _) ->
      Hashtbl.replace incoming s'
        ((s, i) :: Option.value ~default:[] (Hashtbl.find_opt incoming s')))
    transitions;
  let r1 = ref 0 and sites = ref 0 and example = ref None in
  List.iter
    (fun (s, i, _, o) ->
      let preds = Option.value ~default:[] (Hashtbl.find_opt incoming s) in
      if List.length preds >= 2 then begin
        let escaping =
          List.filter (fun p -> not (Hashtbl.mem contexts ((s, i), p))) preds
        in
        if escaping <> [] then begin
          incr sites;
          r1 := !r1 + List.length escaping;
          if !example = None then example := Some (s, i, o, List.hd escaping)
        end
      end)
    transitions;
  { Fsm_lint.r1_escaping = !r1; r1_sites = !sites; r1_example = !example }

(* State 0 is entered from states 1 and 2, state 2 from states 0 and
   1. A minimum tour takes each of state 0's transitions about once, so
   it cannot take each of them after both of its predecessors: a
   conditional output error escapes and SA640 fires. *)
let fan_in =
  Fsm.of_table
    [ (0, 0, 1, 0); (0, 1, 2, 1); (1, 0, 0, 0); (1, 1, 2, 1); (2, 0, 0, 1) ]

let test_sa640_fires () =
  let r = Fsm_lint.run ~name:"fan_in" fan_in in
  Alcotest.(check bool) "fault-structural ran" true
    (List.mem "fault-structural" r.Fsm_lint.passes);
  Alcotest.(check bool) "SA640 reported" true (has "SA640" r);
  let d = diag "SA640" r in
  Alcotest.(check bool) "a warning" true (d.Diag.severity = Diag.Warning);
  let tour =
    match Tour.transition_tour fan_in with
    | Some t -> t.Tour.word
    | None -> Alcotest.fail "fan_in has a tour"
  in
  let r1 = Fsm_lint.r1_escapes fan_in tour in
  Alcotest.(check bool) "escapes counted" true (r1.Fsm_lint.r1_escaping > 0);
  Alcotest.(check bool) "matches the oracle" true (r1 = r1_oracle fan_in tour);
  Alcotest.(check bool) "message names the requirement" true
    (contains ~sub:"non-uniform output error" d.Diag.message
    && contains ~sub:"(Requirement 1)" d.Diag.message)

(* a random machine with a random valid mask (reset always has one
   valid input), so replays also skip invalid inputs *)
let random_partial rng ~n_states ~n_inputs =
  let tab = Array.init (n_states * n_inputs) (fun _ -> Rng.int rng n_states) in
  let out = Array.init (n_states * n_inputs) (fun _ -> Rng.int rng 3) in
  let ok =
    Array.init (n_states * n_inputs) (fun k -> k = 0 || Rng.int rng 4 > 0)
  in
  Fsm.make ~n_states ~n_inputs
    ~valid:(fun s i -> ok.((s * n_inputs) + i))
    ~next:(fun s i -> tab.((s * n_inputs) + i))
    ~output:(fun s i -> out.((s * n_inputs) + i))
    ()

let qcheck_r1_matches_oracle =
  QCheck.Test.make ~name:"fsm_lint: int-keyed R1 = tuple-keyed oracle" ~count:300
    QCheck.(
      quad (int_range 1 9) (int_range 1 4) (int_range 1 9999)
        (list_of_size Gen.(0 -- 60) (int_bound 1000)))
    (fun (n, k, seed, word) ->
      let rng = Rng.create seed in
      let m =
        if seed mod 2 = 0 then
          Fsm.random_connected rng ~n_states:(max 2 n) ~n_inputs:k ~n_outputs:2
        else random_partial rng ~n_states:n ~n_inputs:k
      in
      let word = List.map (fun i -> i mod k) word in
      Fsm_lint.r1_escapes m word = r1_oracle m word)

(* The fault-structural pass used to spend most of the lint's time and
   allocation in polymorphic hashing (5.8M minor words on dlx). *)
let test_dlx_lint_allocation () =
  let m = Fsm.tabulate (Simcov_dlx.Testmodel.build Simcov_dlx.Testmodel.default) in
  ignore (Fsm_lint.run ~name:"dlx-test" m);
  let w0 = Gc.minor_words () in
  ignore (Fsm_lint.run ~name:"dlx-test" m);
  let words = Gc.minor_words () -. w0 in
  if words > 3e6 then
    Alcotest.failf "Fsm_lint.run on dlx allocated %.0f minor words (bound 3M)" words

let suite =
  [
    Alcotest.test_case "clean machine certified" `Quick test_clean_machine;
    Alcotest.test_case "disconnected machine" `Quick test_disconnected;
    Alcotest.test_case "non-minimal machine" `Quick test_nonminimal;
    Alcotest.test_case "well-formedness codes" `Quick test_well_formedness_codes;
    Alcotest.test_case "suite cover prediction" `Quick test_suite_cover;
    Alcotest.test_case "suite invalid word" `Quick test_suite_invalid_word;
    Alcotest.test_case "budget skips recorded" `Quick test_budget_skip;
    Alcotest.test_case "json round trip" `Quick test_json_round_trip;
    Alcotest.test_case "precheck refusals" `Quick test_precheck_refusals;
    QCheck_alcotest.to_alcotest qcheck_minimized_is_minimal;
    QCheck_alcotest.to_alcotest qcheck_duplicate_state_caught;
    QCheck_alcotest.to_alcotest qcheck_suite_cover_matches_simulation;
    QCheck_alcotest.to_alcotest qcheck_r1_matches_oracle;
    Alcotest.test_case "SA640 fires on a fan-in machine" `Quick test_sa640_fires;
    Alcotest.test_case "dlx lint allocation" `Quick test_dlx_lint_allocation;
  ]
