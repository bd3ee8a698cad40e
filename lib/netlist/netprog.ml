type op = Leaf | False | True | Not | And | Or | Xor | Mux

type t = {
  n_inputs : int;
  n_regs : int;
  init : bool array;  (* register reset values *)
  op : op array;
  fan : int array;  (* three fanin slot ids per slot, 0 when unused *)
  constraint_end : int;
  constraint_slot : int;
  next_slots : int array;
  output_slots : int array;
}

let compile (c : Circuit.t) =
  let ni = Circuit.n_inputs c and nr = Circuit.n_regs c in
  let leaves = ni + nr in
  (* hash-consing on (op, fanin slot ids): children are compiled first,
     so equal subterms already share one slot id and the key is flat *)
  let table = Hashtbl.create 512 in
  let gates = ref [] and next = ref leaves in
  let node op a b s =
    let key = (op, a, b, s) in
    match Hashtbl.find_opt table key with
    | Some slot -> slot
    | None ->
        let slot = !next in
        incr next;
        Hashtbl.add table key slot;
        gates := key :: !gates;
        slot
  in
  let rec go = function
    | Expr.Const b -> node (if b then True else False) 0 0 0
    | Expr.Input i ->
        if i < 0 || i >= ni then invalid_arg "Netprog.compile: input index out of range";
        i
    | Expr.Reg r ->
        if r < 0 || r >= nr then
          invalid_arg "Netprog.compile: register index out of range";
        ni + r
    | Expr.Not e ->
        let a = go e in
        node Not a 0 0
    | Expr.And (x, y) -> binary And x y
    | Expr.Or (x, y) -> binary Or x y
    | Expr.Xor (x, y) -> binary Xor x y
    | Expr.Mux (s, h, l) ->
        let s = go s in
        let h = go h in
        let l = go l in
        node Mux s h l
  and binary op x y =
    let a = go x in
    let b = go y in
    node op a b 0
  in
  let constraint_slot = go c.Circuit.input_constraint in
  let constraint_end = !next in
  let next_slots = Array.map (fun (r : Circuit.reg) -> go r.Circuit.next) c.Circuit.regs in
  let output_slots =
    Array.map (fun (o : Circuit.port) -> go o.Circuit.expr) c.Circuit.outputs
  in
  let n = !next in
  let op = Array.make n Leaf and fan = Array.make (3 * n) 0 in
  List.iteri
    (fun k (o, a, b, s) ->
      let slot = n - 1 - k in
      op.(slot) <- o;
      fan.(3 * slot) <- a;
      fan.((3 * slot) + 1) <- b;
      fan.((3 * slot) + 2) <- s)
    !gates;
  {
    n_inputs = ni;
    n_regs = nr;
    init = Circuit.initial_state c;
    op;
    fan;
    constraint_end;
    constraint_slot;
    next_slots;
    output_slots;
  }

let n_inputs p = p.n_inputs
let n_regs p = p.n_regs
let n_outputs p = Array.length p.output_slots
let initial_state p = Array.copy p.init
let slots p = Array.length p.op
let gates p = slots p - p.n_inputs - p.n_regs
let reg_slot p r = p.n_inputs + r
let constraint_end p = p.constraint_end
let constraint_slot p = p.constraint_slot
let next_slot p r = p.next_slots.(r)
let output_slot p o = p.output_slots.(o)

let check_scratch p len =
  if len < slots p then invalid_arg "Netprog: scratch array shorter than the program"

(* Every fanin slot id is below its gate's slot (compile numbers a gate
   after its children) and the scratch length is checked on entry, so
   the unchecked accesses below stay in bounds. *)
let run p v lo hi =
  check_scratch p (Array.length v);
  let op = p.op and fan = p.fan in
  for k = lo to hi - 1 do
    let f = 3 * k in
    let x = Array.unsafe_get v (Array.unsafe_get fan f) in
    Array.unsafe_set v k
      (match Array.unsafe_get op k with
      | False -> 0
      | True -> -1
      | Not -> lnot x
      | And -> x land Array.unsafe_get v (Array.unsafe_get fan (f + 1))
      | Or -> x lor Array.unsafe_get v (Array.unsafe_get fan (f + 1))
      | Xor -> x lxor Array.unsafe_get v (Array.unsafe_get fan (f + 1))
      | Mux ->
          (x land Array.unsafe_get v (Array.unsafe_get fan (f + 1)))
          lor (lnot x land Array.unsafe_get v (Array.unsafe_get fan (f + 2)))
      | Leaf -> assert false (* gate ranges start after the leaves *))
  done

let eval_constraint p v = run p v (p.n_inputs + p.n_regs) p.constraint_end
let eval_rest p v = run p v p.constraint_end (slots p)

(* golden values are 0 or -1 in every slot: the native lane evaluator
   with all lanes equal *)
type sim = { prog : t; v : int array }

let sim p = { prog = p; v = Array.make (slots p) 0 }

let load s (state : Circuit.state) inputs =
  let p = s.prog in
  for i = 0 to p.n_inputs - 1 do
    s.v.(i) <- (if inputs.(i) then -1 else 0)
  done;
  for r = 0 to p.n_regs - 1 do
    s.v.(p.n_inputs + r) <- (if state.(r) then -1 else 0)
  done

let input_valid s state inputs =
  load s state inputs;
  eval_constraint s.prog s.v;
  s.v.(s.prog.constraint_slot) <> 0

let step s state inputs =
  let p = s.prog in
  assert (Array.length state = p.n_regs);
  if Array.length inputs <> p.n_inputs then
    invalid_arg "Circuit.step: input vector width mismatch";
  if not (input_valid s state inputs) then
    invalid_arg "Circuit.step: input combination violates the constraint";
  eval_rest p s.v;
  let bit slot = s.v.(slot) <> 0 in
  (Array.map bit p.next_slots, Array.map bit p.output_slots)
