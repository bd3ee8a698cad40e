(* Statistics and accounting for the benchmark: order statistics over
   samples, failure tallies, span self-time folding, and the one-line
   result record. Everything here is pure so test_stats.ml can pin each
   formula. *)

module Json = Simcov_util.Json

(* ---- order statistics ---- *)

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

let need name n a =
  if Array.length a < n then
    invalid_arg (Printf.sprintf "Stats.%s: needs at least %d samples" name n)

(* Nearest-rank percentile: the smallest sample with at least [p]
   percent of all samples at or below it. [p] is an integer percent so
   the rank is exact integer arithmetic. *)
let percentile p a =
  need "percentile" 1 a;
  if p <= 0 || p > 100 then invalid_arg "Stats.percentile: p outside (0, 100]";
  let s = sorted a in
  let n = Array.length s in
  let rank = ((p * n) + 99) / 100 in
  s.(rank - 1)

(* The median as Python's [statistics.median] gives it: the middle
   sample, or the mean of the two middle ones. *)
let median a =
  need "median" 1 a;
  let s = sorted a in
  let n = Array.length s in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Quartiles as Python's [statistics.quantiles a ~n:4] gives them
   (the default "exclusive" method): positions i(n+1)/4, linearly
   interpolated between the two nearest samples. *)
let quartiles a =
  need "quartiles" 2 a;
  let s = sorted a in
  let ld = Array.length s in
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (i * m / 4) (ld - 1)) in
    let delta = (i * m) - (j * 4) in
    ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

(* [num / den], 0 when there was nothing to divide by *)
let ratio num den = if den = 0. then 0. else num /. den

(* Rates over consecutive stretches of [size] completions. [ends] are
   the completion times in increasing order and [amounts] what each
   completion contributed. A stretch runs from the end of the one
   before it (the first from [t_start]) to its last completion; a
   trailing partial stretch is dropped. *)
let segment_rates ~size ~t_start ends amounts =
  Array.init (Array.length ends / size) (fun j ->
      let first = j * size and last = ((j + 1) * size) - 1 in
      let t0 = if j = 0 then t_start else ends.(first - 1) in
      let sum = ref 0. in
      for i = first to last do
        sum := !sum +. amounts.(i)
      done;
      ratio !sum (ends.(last) -. t0))

(* ---- failure accounting ---- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : (string * int) list;  (** failure reason -> count *)
}

let tally () = { attempted = 0; failed = 0; reasons = [] }

let record t = function
  | Ok () -> t.attempted <- t.attempted + 1
  | Error reason ->
      t.attempted <- t.attempted + 1;
      t.failed <- t.failed + 1;
      let n = Option.value ~default:0 (List.assoc_opt reason t.reasons) in
      t.reasons <- (reason, n + 1) :: List.remove_assoc reason t.reasons

let error_rate t = ratio (float_of_int t.failed) (float_of_int t.attempted)

(* ---- span self time ---- *)

type span = { name : string; start : float; stop : float }

(* The layer a product span belongs to: the first component of its
   dotted name, with the symbolic package's two prefixes merged. *)
let layer_of name =
  let p =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  match p with "symfsm" | "symtour" -> "symbolic" | p -> p

let eps = 1e-6

(* Self time per layer of the spans recorded during one op. Nesting is
   interval containment; a span's self time is its duration minus that
   of its direct children. Returns the per-layer self seconds (sorted
   by layer) and the seconds the top-level spans cover, which is also
   the sum of every self time. *)
let self_times spans =
  let spans =
    List.sort
      (fun a b ->
        match Float.compare a.start b.start with
        | 0 -> Float.compare b.stop a.stop
        | c -> c)
      spans
  in
  let acc = Hashtbl.create 8 in
  let add layer s =
    Hashtbl.replace acc layer
      (s +. Option.value ~default:0. (Hashtbl.find_opt acc layer))
  in
  let covered = ref 0. in
  (* the open ancestors of the current span, innermost first, each
     with the child time it has accumulated *)
  let close (sp, children) = add (layer_of sp.name) (sp.stop -. sp.start -. children) in
  let rec place stack sp =
    match stack with
    | (top, children) :: rest ->
        if sp.start >= top.start -. eps && sp.stop <= top.stop +. eps then
          (sp, 0.) :: (top, children +. (sp.stop -. sp.start)) :: rest
        else begin
          close (top, children);
          place rest sp
        end
    | [] ->
        covered := !covered +. (sp.stop -. sp.start);
        [ (sp, 0.) ]
  in
  let stack = List.fold_left place [] spans in
  List.iter close stack;
  let layers =
    Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  (layers, !covered)

(* A product trace event as a span, if it carries a duration: events
   are emitted when a span ends, at [t_s] seconds after the sink was
   installed. *)
let span_of_event j =
  let num = function
    | Some (Json.Float f) -> Some f
    | Some (Json.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  match
    (Json.member "ev" j, num (Json.member "t_s" j), num (Json.member "dur_s" j))
  with
  | Some (Json.String name), Some t, Some d -> Some { name; start = t -. d; stop = t }
  | _ -> None

(* ---- the result record ---- *)

type metric = { m_name : string; m_value : float; m_unit : string }

(* The final stdout line: exactly [correct], [attempted], [failed] and
   [metrics], each metric as {value, unit}. *)
let result_line ~correct (t : tally) metrics =
  Json.to_string ~indent:0
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int t.attempted);
         ("failed", Json.Int t.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  ( m.m_name,
                    Json.Obj
                      [ ("value", Json.Float m.m_value); ("unit", Json.String m.m_unit) ]
                  ))
                metrics) );
       ])
