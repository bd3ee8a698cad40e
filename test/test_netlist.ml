open Simcov_netlist

let ( !! ) = Expr.( !! )
let ( &&& ) = Expr.( &&& )
let ( ||| ) = Expr.( ||| )
let ( ^^^ ) = Expr.( ^^^ )

let test_expr_folding () =
  Alcotest.(check bool) "and false" true (Expr.fls &&& Expr.input 0 = Expr.fls);
  Alcotest.(check bool) "and true" true (Expr.tru &&& Expr.input 0 = Expr.input 0);
  Alcotest.(check bool) "or true" true (Expr.tru ||| Expr.input 0 = Expr.tru);
  Alcotest.(check bool) "xor self" true (Expr.input 1 ^^^ Expr.input 1 = Expr.fls);
  Alcotest.(check bool) "double negation" true (!!(!!(Expr.input 2)) = Expr.input 2);
  Alcotest.(check bool) "mux const sel" true
    (Expr.mux Expr.tru (Expr.input 0) (Expr.input 1) = Expr.input 0);
  Alcotest.(check bool) "mux same branches" true
    (Expr.mux (Expr.input 2) (Expr.input 0) (Expr.input 0) = Expr.input 0)

let test_expr_eval () =
  let e = Expr.mux (Expr.input 0) (Expr.reg 0 &&& Expr.input 1) (!!(Expr.reg 1)) in
  let eval i0 i1 r0 r1 =
    Expr.eval
      ~inputs:(fun i -> if i = 0 then i0 else i1)
      ~regs:(fun r -> if r = 0 then r0 else r1)
      e
  in
  Alcotest.(check bool) "sel=1 path" true (eval true true true false);
  Alcotest.(check bool) "sel=1 path false" false (eval true false true false);
  Alcotest.(check bool) "sel=0 path" true (eval false false false false);
  Alcotest.(check bool) "sel=0 path false" false (eval false false false true)

let test_expr_support () =
  let e = Expr.input 3 &&& (Expr.reg 1 ||| Expr.reg 4) in
  let ins, regs = Expr.support e in
  Alcotest.(check (list int)) "inputs" [ 3 ] ins;
  Alcotest.(check (list int)) "regs" [ 1; 4 ] regs

let test_expr_map_leaves () =
  let e = Expr.input 0 &&& Expr.reg 0 in
  let e' = Expr.map_leaves ~input:(fun _ -> Expr.tru) ~reg:(fun r -> Expr.reg (r + 1)) e in
  Alcotest.(check bool) "substituted and folded" true (e' = Expr.reg 1)

let test_vec_ops () =
  let v = Expr.Vec.const ~width:4 0b1010 in
  let ev = Expr.eval ~inputs:(fun _ -> false) ~regs:(fun _ -> false) in
  Alcotest.(check bool) "eq_const matches" true (ev (Expr.Vec.eq_const v 0b1010));
  Alcotest.(check bool) "eq_const mismatch" false (ev (Expr.Vec.eq_const v 0b1011));
  Alcotest.(check int) "vec eval" 0b1010
    (Expr.Vec.eval ~inputs:(fun _ -> false) ~regs:(fun _ -> false) v)

let test_vec_onehot () =
  let ev = Expr.eval ~inputs:(fun _ -> false) ~regs:(fun _ -> false) in
  Alcotest.(check bool) "one bit set" true
    (ev (Expr.Vec.onehot (Expr.Vec.const ~width:4 0b0100)));
  Alcotest.(check bool) "two bits set" false
    (ev (Expr.Vec.onehot (Expr.Vec.const ~width:4 0b0101)));
  Alcotest.(check bool) "zero bits set" false
    (ev (Expr.Vec.onehot (Expr.Vec.const ~width:4 0)))

(* A 2-bit counter with enable input and a wrap output. *)
let counter_circuit () =
  let open Circuit.Build in
  let ctx = create "counter2" in
  let en = input ctx "en" in
  let b0 = reg ctx ~group:"count" "b0" in
  let b1 = reg ctx ~group:"count" "b1" in
  assign ctx b0 (Expr.mux en (!!b0) b0);
  assign ctx b1 (Expr.mux en (b1 ^^^ b0) b1);
  output ctx "wrap" (en &&& b0 &&& b1);
  finish ctx

let test_build_and_simulate () =
  let c = counter_circuit () in
  Alcotest.(check int) "inputs" 1 (Circuit.n_inputs c);
  Alcotest.(check int) "regs" 2 (Circuit.n_regs c);
  (* count 0,1,2,3 -> wrap on the step leaving 3 *)
  let outs = Circuit.simulate c [ [| true |]; [| true |]; [| true |]; [| true |] ] in
  let wraps = List.map (fun o -> o.(0)) outs in
  Alcotest.(check (list bool)) "wrap on last" [ false; false; false; true ] wraps

let test_simulate_disabled () =
  let c = counter_circuit () in
  let outs = Circuit.simulate c [ [| false |]; [| false |] ] in
  Alcotest.(check bool) "never wraps" true (List.for_all (fun o -> not o.(0)) outs)

let test_reg_index_groups () =
  let c = counter_circuit () in
  Alcotest.(check int) "b1 index" 1 (Circuit.reg_index c "b1");
  Alcotest.(check (list int)) "group" [ 0; 1 ] (Circuit.regs_in_group c "count");
  Alcotest.(check (list string)) "groups" [ "count" ] (Circuit.groups c)

let test_constraint_blocks_input () =
  let open Circuit.Build in
  let ctx = create "constrained" in
  let a = input ctx "a" in
  let b = input ctx "b" in
  let r = reg ctx "r" in
  assign ctx r (a ^^^ b);
  output ctx "o" r;
  constrain ctx (!!(a &&& b));
  let c = finish ctx in
  Alcotest.(check bool) "valid input" true
    (Circuit.input_valid c (Circuit.initial_state c) [| true; false |]);
  Alcotest.(check bool) "invalid input" false
    (Circuit.input_valid c (Circuit.initial_state c) [| true; true |]);
  Alcotest.(check bool) "step rejects invalid" true
    (try
       ignore (Circuit.step c (Circuit.initial_state c) [| true; true |]);
       false
     with Invalid_argument _ -> true)

let test_unassigned_register_fails () =
  let open Circuit.Build in
  let ctx = create "bad" in
  let _ = reg ctx "r" in
  match finish ctx with
  | _ -> Alcotest.fail "finish should fail"
  | exception Build_error e ->
      Alcotest.(check (list string)) "never assigned" [ "r" ] e.never_assigned;
      Alcotest.(check (list string)) "no dups" [] e.doubly_assigned

let test_build_errors_collected () =
  (* every offender reported in one error, not just the first *)
  let open Circuit.Build in
  let ctx = create "bad" in
  let a = reg ctx "a" in
  let _ = reg ctx "b" in
  let c = reg ctx "c" in
  let _ = reg ctx "d" in
  assign ctx a Expr.tru;
  assign ctx a Expr.fls;
  assign ctx c Expr.tru;
  assign ctx c Expr.fls;
  assign ctx c Expr.tru;
  match finish ctx with
  | _ -> Alcotest.fail "finish should fail"
  | exception Build_error e ->
      Alcotest.(check string) "circuit" "bad" e.circuit;
      Alcotest.(check (list string)) "dups" [ "a"; "c"; "c" ] e.doubly_assigned;
      Alcotest.(check (list string)) "missing" [ "b"; "d" ] e.never_assigned;
      Alcotest.(check bool) "message mentions both" true
        (let s = build_error_to_string e in
         let has sub =
           let n = String.length s and m = String.length sub in
           let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
           go 0
         in
         has "assigned twice" && has "never assigned")

let test_cone_analysis () =
  let open Circuit.Build in
  let ctx = create "cone" in
  let i = input ctx "i" in
  let a = reg ctx "a" in
  let b = reg ctx "b" in
  let dead = reg ctx "dead" in
  assign ctx a i;
  assign ctx b a;
  assign ctx dead (Expr.( !! ) dead);
  output ctx "o" b;
  let c = finish ctx in
  Alcotest.(check (list int)) "output cone excludes dead" [ 0; 1 ] (Circuit.output_cone c);
  Alcotest.(check (list int)) "closure of b pulls a" [ 0; 1 ]
    (Circuit.reg_support_closure c [ 1 ])

let test_to_fsm_matches_simulation () =
  let c = counter_circuit () in
  let m = Circuit.to_fsm c in
  Alcotest.(check int) "4 states" 4 m.Simcov_fsm.Fsm.n_states;
  Alcotest.(check int) "2 inputs" 2 m.Simcov_fsm.Fsm.n_inputs;
  (* run the same random words through circuit and fsm *)
  let rng = Simcov_util.Rng.create 21 in
  for _ = 1 to 20 do
    let word = List.init 8 (fun _ -> Simcov_util.Rng.int rng 2) in
    let fsm_outs = Simcov_fsm.Fsm.output_word m word in
    let circ_outs =
      Circuit.simulate c (List.map (fun v -> [| v = 1 |]) word)
      |> List.map (fun o -> if o.(0) then 1 else 0)
    in
    Alcotest.(check (list int)) "outputs agree" circ_outs fsm_outs
  done

let test_to_fsm_respects_constraint () =
  let open Circuit.Build in
  let ctx = create "constrained" in
  let a = input ctx "a" in
  let b = input ctx "b" in
  let r = reg ctx "r" in
  assign ctx r (a ||| b);
  output ctx "o" r;
  constrain ctx (!!(a &&& b));
  let c = finish ctx in
  let m = Circuit.to_fsm c in
  Alcotest.(check bool) "11 invalid" false (m.Simcov_fsm.Fsm.valid 0 3);
  Alcotest.(check bool) "01 valid" true (m.Simcov_fsm.Fsm.valid 0 1)

let test_to_fsm_size_guard () =
  let open Circuit.Build in
  let ctx = create "big" in
  let i = input ctx "i" in
  let v = reg_vec ctx "v" 25 in
  Array.iter (fun r -> assign ctx r (i &&& r)) v;
  output ctx "o" v.(0);
  let c = finish ctx in
  Alcotest.(check bool) "guard trips" true
    (try
       ignore (Circuit.to_fsm c);
       false
     with Invalid_argument _ -> true)

let qcheck_expr_eval_vs_bdd_semantics =
  (* map_leaves with identity must preserve evaluation *)
  QCheck.Test.make ~name:"netlist: identity map_leaves preserves eval" ~count:100
    QCheck.(pair (int_bound 15) (int_bound 15))
    (fun (iv, rv) ->
      let e =
        Expr.mux (Expr.input 0)
          (Expr.input 1 &&& Expr.reg 0)
          (Expr.reg 1 ^^^ (Expr.input 2 ||| Expr.reg 2))
      in
      let e' = Expr.map_leaves ~input:Expr.input ~reg:Expr.reg e in
      let inputs i = (iv lsr i) land 1 = 1 and regs r = (rv lsr r) land 1 = 1 in
      Expr.eval ~inputs ~regs e = Expr.eval ~inputs ~regs e')

(* ---- compiled gate programs ---- *)

module Rng = Simcov_util.Rng

(* A random expression over [ni] inputs and [nr] registers, built with
   the raw constructors so constants, Xor and Mux survive unfolded.
   About a quarter of the subterms are drawn again from [pool], so the
   trees repeat subtrees that compiling must merge. *)
let random_expr rng ~ni ~nr ~pool depth =
  let leaf () =
    match Rng.int rng 5 with
    | 0 -> Expr.Const (Rng.bool rng)
    | 1 | 2 -> Expr.Input (Rng.int rng ni)
    | _ -> Expr.Reg (Rng.int rng nr)
  in
  let rec go d =
    if d = 0 || Rng.int rng 6 = 0 then leaf ()
    else if !pool <> [] && Rng.int rng 4 = 0 then
      List.nth !pool (Rng.int rng (List.length !pool))
    else begin
      let e =
        match Rng.int rng 5 with
        | 0 -> Expr.Not (go (d - 1))
        | 1 -> Expr.And (go (d - 1), go (d - 1))
        | 2 -> Expr.Or (go (d - 1), go (d - 1))
        | 3 -> Expr.Xor (go (d - 1), go (d - 1))
        | _ -> Expr.Mux (go (d - 1), go (d - 1), go (d - 1))
      in
      if List.length !pool < 32 then pool := e :: !pool;
      e
    end
  in
  go depth

(* A random circuit whose input constraint rejects about a quarter of
   the (state, input) pairs: [!!(e1 &&& e2)] is false only when both
   random terms are true. *)
let random_circuit rng =
  let ni = 1 + Rng.int rng 4 and nr = 1 + Rng.int rng 5 in
  let pool = ref [] in
  let expr depth = random_expr rng ~ni ~nr ~pool depth in
  let input_constraint =
    if Rng.int rng 5 = 0 then Expr.Const true
    else Expr.Not (Expr.And (expr 3, expr 3))
  in
  {
    Circuit.name = "random";
    input_names = Array.init ni (Printf.sprintf "i%d");
    regs =
      Array.init nr (fun r ->
          {
            Circuit.name = Printf.sprintf "r%d" r;
            group = "main";
            init = Rng.bool rng;
            next = expr 5;
          });
    outputs =
      Array.init (1 + Rng.int rng 3) (fun o ->
          { Circuit.port_name = Printf.sprintf "o%d" o; expr = expr 5 });
    input_constraint;
  }

let random_bools rng n = Array.init n (fun _ -> Rng.bool rng)

let step_result f =
  match f () with r -> Ok r | exception Invalid_argument msg -> Error msg

let qcheck_netprog_sim_eq_step =
  QCheck.Test.make ~name:"netprog: golden sim = Circuit.step" ~count:300
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let c = random_circuit rng in
      let sim = Netprog.sim (Netprog.compile c) in
      let ni = Circuit.n_inputs c and nr = Circuit.n_regs c in
      for _ = 1 to 30 do
        let state = random_bools rng nr and iv = random_bools rng ni in
        if Netprog.input_valid sim state iv <> Circuit.input_valid c state iv then
          QCheck.Test.fail_report "input_valid differs";
        if step_result (fun () -> Netprog.step sim state iv)
           <> step_result (fun () -> Circuit.step c state iv)
        then QCheck.Test.fail_report "step differs"
      done;
      (* a vector of the wrong width is refused with Circuit.step's
         message *)
      let state = Circuit.initial_state c in
      let wide = random_bools rng (ni + 1) in
      step_result (fun () -> Netprog.step sim state wide)
      = step_result (fun () -> Circuit.step c state wide))

(* lane [l] of every leaf slot carries valuation [l]; after a pass,
   bit [l] of every root slot must be the tree evaluation under it *)
let qcheck_netprog_lanes_eq_eval =
  QCheck.Test.make ~name:"netprog: native lanes = per-lane eval" ~count:200
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let c = random_circuit rng in
      let p = Netprog.compile c in
      let ni = Circuit.n_inputs c and nr = Circuit.n_regs c in
      let states = Array.init Sys.int_size (fun _ -> random_bools rng nr) in
      let ivs = Array.init Sys.int_size (fun _ -> random_bools rng ni) in
      let scalar l e =
        Expr.eval ~inputs:(fun i -> ivs.(l).(i)) ~regs:(fun r -> states.(l).(r)) e
      in
      let roots =
        (Netprog.constraint_slot p, c.Circuit.input_constraint)
        :: (Array.to_list
              (Array.mapi (fun r (rg : Circuit.reg) -> (Netprog.next_slot p r, rg.Circuit.next)) c.Circuit.regs)
           @ Array.to_list
               (Array.mapi (fun o (pt : Circuit.port) -> (Netprog.output_slot p o, pt.Circuit.expr)) c.Circuit.outputs))
      in
      let v = Array.make (Netprog.slots p) 0 in
      let pack f =
        let w = ref 0 in
        for l = 0 to Sys.int_size - 1 do
          if f l then w := !w lor (1 lsl l)
        done;
        !w
      in
      for i = 0 to ni - 1 do
        v.(i) <- pack (fun l -> ivs.(l).(i))
      done;
      for r = 0 to nr - 1 do
        v.(Netprog.reg_slot p r) <- pack (fun l -> states.(l).(r))
      done;
      Netprog.eval_constraint p v;
      let check_native (slot, e) =
        for l = 0 to Sys.int_size - 1 do
          if (v.(slot) lsr l) land 1 = 1 <> scalar l e then
            QCheck.Test.fail_reportf "native lane %d differs at slot %d" l slot
        done
      in
      check_native (List.hd roots);
      Netprog.eval_rest p v;
      List.iter check_native roots;
      true)

let test_netprog_hash_consing () =
  let open Circuit.Build in
  let ctx = create "shared" in
  let a = input ctx "a" in
  let b = input ctx "b" in
  let r0 = reg ctx "r0" in
  let r1 = reg ctx "r1" in
  (* a &&& b appears three times; it must compile to one gate *)
  assign ctx r0 ((a &&& b) ^^^ r0);
  assign ctx r1 ((a &&& b) ||| r1);
  output ctx "o" (a &&& b);
  let c = finish ctx in
  let p = Netprog.compile c in
  (* the trivial constraint, And, Xor, Or *)
  Alcotest.(check int) "distinct gates" 4 (Netprog.gates p);
  Alcotest.(check bool) "constraint first" true
    (Netprog.constraint_slot p < Netprog.constraint_end p
    && Netprog.constraint_end p <= Netprog.output_slot p 0);
  (* the DLX test model is mostly repeated subtrees *)
  let dlx = fst (Simcov_dlx.Control.derive_test_model ()) in
  let dp = Netprog.compile dlx in
  Alcotest.(check bool) "dlx-test: far fewer gates than tree nodes" true
    (10 * Netprog.gates dp < Circuit.gate_count dlx)

let test_netprog_rejects_undeclared_leaf () =
  let c = counter_circuit () in
  let bad = { c with Circuit.input_constraint = Expr.Input 1 } in
  Alcotest.check_raises "input out of range"
    (Invalid_argument "Netprog.compile: input index out of range") (fun () ->
      ignore (Netprog.compile bad))

let suite =
  [
    Alcotest.test_case "expr folding" `Quick test_expr_folding;
    Alcotest.test_case "expr eval" `Quick test_expr_eval;
    Alcotest.test_case "expr support" `Quick test_expr_support;
    Alcotest.test_case "expr map_leaves" `Quick test_expr_map_leaves;
    Alcotest.test_case "vec ops" `Quick test_vec_ops;
    Alcotest.test_case "vec onehot" `Quick test_vec_onehot;
    Alcotest.test_case "build and simulate" `Quick test_build_and_simulate;
    Alcotest.test_case "simulate disabled" `Quick test_simulate_disabled;
    Alcotest.test_case "reg index/groups" `Quick test_reg_index_groups;
    Alcotest.test_case "constraint blocks input" `Quick test_constraint_blocks_input;
    Alcotest.test_case "unassigned register" `Quick test_unassigned_register_fails;
    Alcotest.test_case "build errors collected" `Quick test_build_errors_collected;
    Alcotest.test_case "cone analysis" `Quick test_cone_analysis;
    Alcotest.test_case "to_fsm matches simulation" `Quick test_to_fsm_matches_simulation;
    Alcotest.test_case "to_fsm respects constraint" `Quick test_to_fsm_respects_constraint;
    Alcotest.test_case "to_fsm size guard" `Quick test_to_fsm_size_guard;
    QCheck_alcotest.to_alcotest qcheck_expr_eval_vs_bdd_semantics;
    Alcotest.test_case "netprog hash-consing" `Quick test_netprog_hash_consing;
    Alcotest.test_case "netprog undeclared leaf" `Quick test_netprog_rejects_undeclared_leaf;
    QCheck_alcotest.to_alcotest qcheck_netprog_sim_eq_step;
    QCheck_alcotest.to_alcotest qcheck_netprog_lanes_eq_eval;
  ]
