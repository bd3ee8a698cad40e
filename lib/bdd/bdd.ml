type t = False | True | Node of { mutable v : int; mutable lo : t; mutable hi : t; uid : int }
(* Node fields are mutable for exactly one reason: an adjacent-level
   swap during dynamic reordering rewrites a node in place, so every
   OCaml value holding it (roots, pinned arguments, cached literals)
   keeps seeing the same boolean function through the same physical
   node. Outside [swap_adjacent] the fields are never written. *)

(* ------------------------------------------------------------------ *)
(* Packed int keys                                                     *)
(*                                                                     *)
(* Every table in the manager is keyed by a single native int. The     *)
(* unique table is split per variable, so its key is just the child    *)
(* pair (lo_uid, hi_uid) packed as lo:26 | hi:26; a binary-operation   *)
(* cache entry is (uid_a, uid_b) packed the same way. The limits —     *)
(* 1024 variables, 2^26 (~67M) live nodes — are far beyond what fits   *)
(* in memory here and are enforced explicitly. Uids of garbage-        *)
(* collected nodes are recycled, so the 2^26 ceiling applies to peak   *)
(* live nodes, not to the total ever allocated.                        *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(*                                                                     *)
(* Process-global counters shared by every manager. The hot paths      *)
(* (cache probes, node creation) do not touch them: they count into    *)
(* plain mutable ints on the manager, which [flush_obs] adds to the    *)
(* current registry when the outermost public operation exits, and     *)
(* before a collection or a reorder reports its own figures. A reader  *)
(* between operations therefore sees exactly the per-probe values. The *)
(* live/peak gauges track the manager that allocated or collected most *)
(* recently.                                                           *)
(* ------------------------------------------------------------------ *)

module Obs = Simcov_obs.Obs

let c_unique_hit = Obs.counter "bdd.unique.hit"
let c_unique_miss = Obs.counter "bdd.unique.miss"
let c_and_hit = Obs.counter "bdd.cache.and.hit"
let c_and_miss = Obs.counter "bdd.cache.and.miss"
let c_or_hit = Obs.counter "bdd.cache.or.hit"
let c_or_miss = Obs.counter "bdd.cache.or.miss"
let c_xor_hit = Obs.counter "bdd.cache.xor.hit"
let c_xor_miss = Obs.counter "bdd.cache.xor.miss"
let c_not_hit = Obs.counter "bdd.cache.not.hit"
let c_not_miss = Obs.counter "bdd.cache.not.miss"
let c_ite_hit = Obs.counter "bdd.cache.ite.hit"
let c_ite_miss = Obs.counter "bdd.cache.ite.miss"
let c_gc_runs = Obs.counter "bdd.gc.runs"
let c_gc_reclaimed = Obs.counter "bdd.gc.reclaimed"
let g_nodes_live = Obs.gauge "bdd.nodes.live"
let g_nodes_peak = Obs.gauge "bdd.nodes.peak"
let c_reorder_runs = Obs.counter "bdd.reorder.runs"
let c_reorder_swaps = Obs.counter "bdd.reorder.swaps"
let g_reorder_before = Obs.gauge "bdd.reorder.nodes_before"
let g_reorder_after = Obs.gauge "bdd.reorder.nodes_after"

(* the per-probe counters, as slots of a manager's pending counts *)
let k_unique_hit = 0
let k_unique_miss = 1
let k_and_hit = 2
let k_and_miss = 3
let k_or_hit = 4
let k_or_miss = 5
let k_xor_hit = 6
let k_xor_miss = 7
let k_not_hit = 8
let k_not_miss = 9
let k_ite_hit = 10
let k_ite_miss = 11

let probe_counters =
  [| c_unique_hit; c_unique_miss; c_and_hit; c_and_miss; c_or_hit; c_or_miss;
     c_xor_hit; c_xor_miss; c_not_hit; c_not_miss; c_ite_hit; c_ite_miss |]

let uid_bits = 26
let uid_limit = 1 lsl uid_bits
let var_limit = 1 lsl 10

let pack2 a b = (a lsl uid_bits) lor b

(* ------------------------------------------------------------------ *)
(* Open-addressed int-keyed hash tables                                *)
(*                                                                     *)
(* Linear probing over power-of-two arrays. Deletion uses tombstones   *)
(* (needed by the reordering swap, which unlinks individual nodes);    *)
(* the garbage collector still compacts wholesale. Real keys are       *)
(* always non-negative, so the two sentinels live in the negative      *)
(* range.                                                              *)
(* ------------------------------------------------------------------ *)

let empty_key = min_int
let tomb_key = min_int + 1

let mix k =
  let h = k * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

module Itab = struct
  type 'a tab = {
    mutable keys : int array;
    mutable data : 'a array;
    mutable used : int;  (* live entries *)
    mutable filled : int;  (* live entries + tombstones *)
    dummy : 'a;
  }

  let round_pow2 n =
    let rec go c = if c >= n then c else go (c * 2) in
    go 16

  let create size dummy =
    let n = round_pow2 size in
    {
      keys = Array.make n empty_key;
      data = Array.make n dummy;
      used = 0;
      filled = 0;
      dummy;
    }

  (* The probe loops are top-level functions taking their state as
     arguments: a local [let rec] closing over the table would be
     allocated as a closure on every probe. *)

  let rec probe_find keys k m i =
    let key = Array.unsafe_get keys i in
    if key = k then i
    else if key = empty_key then -1
    else probe_find keys k m ((i + 1) land m)

  (* index of [k], or -1 when absent; tombstones are skipped *)
  let find_idx t k =
    let keys = t.keys in
    let m = Array.length keys - 1 in
    probe_find keys k m (mix k land m)

  (* first empty slot on [k]'s probe path, in a table without
     tombstones *)
  let rec probe_empty keys m j =
    if Array.unsafe_get keys j = empty_key then j
    else probe_empty keys m ((j + 1) land m)

  (* index of [k] when present; otherwise [-2 - slot], where [slot] is
     the one an insertion of [k] takes: the first tombstone on the
     probe path, else the empty slot that ends it *)
  let rec probe_slot keys k m i tomb =
    let key = Array.unsafe_get keys i in
    if key = k then i
    else if key = empty_key then -2 - (if tomb >= 0 then tomb else i)
    else if key = tomb_key && tomb < 0 then probe_slot keys k m ((i + 1) land m) i
    else probe_slot keys k m ((i + 1) land m) tomb

  let find_slot t k =
    let keys = t.keys in
    let m = Array.length keys - 1 in
    probe_slot keys k m (mix k land m) (-1)

  let value t i = Array.unsafe_get t.data i

  (* rehash, dropping tombstones; grows only when the live load asks
     for it (a rehash at the same size is how a tombstone-heavy table
     recovers) *)
  let resize t =
    let old_keys = t.keys and old_data = t.data in
    let len = Array.length old_keys in
    let n = if 2 * (t.used + 1) > len then 2 * len else len in
    let keys = Array.make n empty_key and data = Array.make n t.dummy in
    let m = n - 1 in
    for i = 0 to len - 1 do
      let k = Array.unsafe_get old_keys i in
      if k <> empty_key && k <> tomb_key then begin
        let j = probe_empty keys m (mix k land m) in
        keys.(j) <- k;
        data.(j) <- old_data.(i)
      end
    done;
    t.keys <- keys;
    t.data <- data;
    t.filled <- t.used

  let needs_resize t = 4 * (t.filled + 1) > 3 * Array.length t.keys

  (* store [v] under [k] at the slot [probe_slot] reported, without
     probing again *)
  let store_at t code k v =
    if code >= 0 then Array.unsafe_set t.data code v
    else begin
      let s = -2 - code in
      if Array.unsafe_get t.keys s = empty_key then t.filled <- t.filled + 1;
      Array.unsafe_set t.keys s k;
      Array.unsafe_set t.data s v;
      t.used <- t.used + 1
    end

  let add t k v =
    if needs_resize t then resize t;
    store_at t (find_slot t k) k v

  (* [insert_absent t code k v] inserts a key that [find_slot] just
     reported absent as [code]: the one-probe miss path of the unique
     table. The table grows on exactly the condition [add] uses; only
     then are the slots re-probed. *)
  let insert_absent t code k v =
    if needs_resize t then add t k v else store_at t code k v

  let remove t k =
    let i = find_idx t k in
    if i >= 0 then begin
      t.keys.(i) <- tomb_key;
      t.data.(i) <- t.dummy;
      t.used <- t.used - 1
    end

  let iter f t =
    let keys = t.keys and data = t.data in
    for i = 0 to Array.length keys - 1 do
      let k = Array.unsafe_get keys i in
      if k <> empty_key && k <> tomb_key then f k (Array.unsafe_get data i)
    done

  let length t = t.used
end

(* ITE needs three uids (78 bits), so its cache carries two key words
   per entry. *)
module Itab2 = struct
  type 'a tab = {
    mutable ka : int array;
    mutable kb : int array;
    mutable data : 'a array;
    mutable used : int;
    dummy : 'a;
  }

  let create size dummy =
    let n = Itab.round_pow2 size in
    {
      ka = Array.make n empty_key;
      kb = Array.make n 0;
      data = Array.make n dummy;
      used = 0;
      dummy;
    }

  let hash a b = mix (a lxor mix b)

  let rec probe_find ka kb a b m i =
    let key = Array.unsafe_get ka i in
    if key = a && Array.unsafe_get kb i = b then i
    else if key = empty_key then -1
    else probe_find ka kb a b m ((i + 1) land m)

  let find_idx t a b =
    let ka = t.ka in
    let m = Array.length ka - 1 in
    probe_find ka t.kb a b m (hash a b land m)

  let value t i = Array.unsafe_get t.data i

  let resize t =
    let old_ka = t.ka and old_kb = t.kb and old_data = t.data in
    let n = 2 * Array.length old_ka in
    let ka = Array.make n empty_key
    and kb = Array.make n 0
    and data = Array.make n t.dummy in
    let m = n - 1 in
    for i = 0 to Array.length old_ka - 1 do
      let a = Array.unsafe_get old_ka i in
      if a <> empty_key then begin
        let b = old_kb.(i) in
        let j = Itab.probe_empty ka m (hash a b land m) in
        ka.(j) <- a;
        kb.(j) <- b;
        data.(j) <- old_data.(i)
      end
    done;
    t.ka <- ka;
    t.kb <- kb;
    t.data <- data

  (* the slot holding (a, b), else the empty slot ending its probe
     path (this table never deletes, so it has no tombstones) *)
  let rec probe_slot ka kb a b m i =
    let key = Array.unsafe_get ka i in
    if key = empty_key || (key = a && Array.unsafe_get kb i = b) then i
    else probe_slot ka kb a b m ((i + 1) land m)

  let add t a b v =
    if 4 * (t.used + 1) > 3 * Array.length t.ka then resize t;
    let ka = t.ka in
    let m = Array.length ka - 1 in
    let i = probe_slot ka t.kb a b m (hash a b land m) in
    if Array.unsafe_get ka i = empty_key then begin
      ka.(i) <- a;
      t.kb.(i) <- b;
      t.used <- t.used + 1
    end;
    t.data.(i) <- v
end

(* ------------------------------------------------------------------ *)
(* Manager                                                             *)
(* ------------------------------------------------------------------ *)

type gc_stats = {
  runs : int;
  reclaimed : int;
  live : int;
  peak_live : int;
}

type reorder_stats = {
  reorder_runs : int;
  reorder_swaps : int;
  last_nodes_before : int;
  last_nodes_after : int;
}

type man = {
  nvars : int;
  cache_size0 : int;
  (* unique table, split per VARIABLE (not per level): a node whose
     variable merely changes level during a swap never moves tables *)
  subtables : t Itab.tab array;
  (* the var <-> level indirection: [var_of_level.(l)] is the variable
     sitting at position [l] of the order, [level_of_var] its inverse.
     Both start as the identity and change only under reordering. *)
  level_of_var : int array;
  var_of_level : int array;
  mutable live : int;  (* total nodes across all subtables *)
  mutable next_uid : int;
  mutable free_uids : int list;  (* uids of swept nodes, ready for reuse *)
  mutable n_free : int;  (* List.length free_uids, maintained *)
  mutable and_cache : t Itab.tab;
  mutable or_cache : t Itab.tab;
  mutable xor_cache : t Itab.tab;
  mutable not_cache : t Itab.tab;
  mutable ite_cache : t Itab2.tab;
  mutable max_nodes : int;  (* live-node ceiling; [uid_limit] = unbounded *)
  pos_lits : t array;  (* literal nodes, created on first use, never swept *)
  neg_lits : t array;
  roots : (int, t) Hashtbl.t;  (* registered external roots *)
  mutable next_root : int;
  mutable temp_roots : t list;  (* arguments of the op in flight *)
  mutable op_depth : int;  (* public-operation nesting depth *)
  mutable gc_runs : int;
  mutable gc_reclaimed : int;
  mutable peak_live : int;
  (* dynamic reordering *)
  mutable auto_reorder : bool;
  mutable reorder_ratio : float;  (* growth ratio that triggers a sift *)
  mutable reorder_min : int;  (* no auto sift below this live count *)
  mutable last_reorder_live : int;  (* live count at the last sift *)
  mutable in_reorder : bool;
  mutable groups : int array array;  (* level-glued variable groups *)
  mutable reorder_runs : int;
  mutable reorder_swapped : int;
  mutable last_before : int;
  mutable last_after : int;
  mutable refs : int array;  (* uid -> refcount; non-empty during a sift only *)
  (* telemetry not yet flushed to Obs (see [flush_obs]): probe counts
     by [k_*] slot *)
  pending : int array;
  (* live count after the window's last node creation, and the window's
     largest one; -1 when the window created no node. The peak is per
     window, not the manager's lifetime peak: a manager shared across
     registries must raise each registry's gauge only to what it
     reached while that registry was current. *)
  mutable win_live : int;
  mutable win_peak : int;
}

exception Node_limit of int

(* Internal: the unique table is full; the outermost public operation
   catches this, garbage-collects, and retries. *)
exception Gc_needed

let man ?(cache_size = 1 lsl 14) ?max_nodes nvars =
  if nvars < 0 then invalid_arg "Bdd.man: negative variable count";
  if nvars > var_limit then
    invalid_arg
      (Printf.sprintf "Bdd.man: %d variables exceeds the limit of %d" nvars
         var_limit);
  let max_nodes =
    match max_nodes with
    | None -> uid_limit
    | Some n ->
        if n <= 0 then invalid_arg "Bdd.man: non-positive max_nodes";
        min n uid_limit
  in
  {
    nvars;
    cache_size0 = cache_size;
    subtables = Array.init nvars (fun _ -> Itab.create 16 False);
    level_of_var = Array.init nvars Fun.id;
    var_of_level = Array.init nvars Fun.id;
    live = 0;
    next_uid = 2;
    free_uids = [];
    n_free = 0;
    and_cache = Itab.create cache_size False;
    or_cache = Itab.create cache_size False;
    xor_cache = Itab.create cache_size False;
    not_cache = Itab.create (cache_size / 4) False;
    ite_cache = Itab2.create (cache_size / 4) False;
    max_nodes;
    pos_lits = Array.make nvars False;
    neg_lits = Array.make nvars False;
    roots = Hashtbl.create 16;
    next_root = 0;
    temp_roots = [];
    op_depth = 0;
    gc_runs = 0;
    gc_reclaimed = 0;
    peak_live = 0;
    auto_reorder = false;
    reorder_ratio = 2.0;
    reorder_min = 4096;
    last_reorder_live = 4096;
    in_reorder = false;
    groups = [||];
    reorder_runs = 0;
    reorder_swapped = 0;
    last_before = 0;
    last_after = 0;
    refs = [||];
    pending = Array.make (Array.length probe_counters) 0;
    win_live = -1;
    win_peak = -1;
  }

let[@inline] bump m k = Array.unsafe_set m.pending k (Array.unsafe_get m.pending k + 1)

(* Hand the pending telemetry to the current registry. Additions
   commute, and the gauges get the window's last live count and its
   maximum, so the registry ends up where one Obs call per probe would
   have left it. *)
let flush_obs m =
  Array.iteri
    (fun k n ->
      if n > 0 then begin
        Obs.add probe_counters.(k) n;
        m.pending.(k) <- 0
      end)
    m.pending;
  if m.win_live >= 0 then begin
    Obs.set g_nodes_live m.win_live;
    Obs.set_max g_nodes_peak m.win_peak;
    m.win_live <- -1;
    m.win_peak <- -1
  end

let num_vars m = m.nvars
let live_nodes m = m.live
let node_count m = live_nodes m + 2
let peak_node_count m = m.peak_live + 2
let max_nodes m = if m.max_nodes >= uid_limit then None else Some m.max_nodes

let set_max_nodes m limit =
  match limit with
  | None -> m.max_nodes <- uid_limit
  | Some n ->
      if n <= 0 then invalid_arg "Bdd.set_max_nodes: non-positive limit";
      m.max_nodes <- min n uid_limit

let gc_stats (m : man) : gc_stats =
  {
    runs = m.gc_runs;
    reclaimed = m.gc_reclaimed;
    live = live_nodes m;
    peak_live = m.peak_live;
  }

let reorder_stats (m : man) : reorder_stats =
  {
    reorder_runs = m.reorder_runs;
    reorder_swaps = m.reorder_swapped;
    last_nodes_before = m.last_before;
    last_nodes_after = m.last_after;
  }

let order m = Array.copy m.var_of_level
let level_of_var m v =
  if v < 0 || v >= m.nvars then invalid_arg "Bdd.level_of_var: variable out of range";
  m.level_of_var.(v)

let bfalse _ = False
let btrue _ = True
let of_bool _ b = if b then True else False

let id = function False -> 0 | True -> 1 | Node n -> n.uid

(* ------------------------------------------------------------------ *)
(* Roots and garbage collection                                        *)
(*                                                                     *)
(* Collecting means compacting the unique table down to the nodes      *)
(* reachable from the registered roots (plus the arguments of the      *)
(* operation in flight) and recycling the uids of everything else. Op  *)
(* caches may reference swept nodes, so every sweep invalidates them   *)
(* wholesale.                                                          *)
(*                                                                     *)
(* Contract: on a manager with a node limit (or under explicit [gc]    *)
(* or [reorder] calls), any BDD held across public operations must be  *)
(* reachable from a registered root — otherwise its nodes are swept    *)
(* and later re-creation breaks hash-consing (physical [equal] on      *)
(* semantically equal functions). The symbolic layer registers its     *)
(* relation conjuncts, reached sets and frontiers accordingly.         *)
(* ------------------------------------------------------------------ *)

type root = int

let add_root m t =
  let r = m.next_root in
  m.next_root <- r + 1;
  Hashtbl.replace m.roots r t;
  r

let set_root m r t = Hashtbl.replace m.roots r t
let remove_root m r = Hashtbl.remove m.roots r

let protect m t =
  ignore (add_root m t);
  t

(* Scoped pin: keep [t] rooted for the duration of [f] — for an
   intermediate that must stay live across further operations but not
   beyond. *)
let pinned m t f =
  let r = add_root m t in
  Fun.protect ~finally:(fun () -> remove_root m r) f

let clear_caches m =
  m.and_cache <- Itab.create m.cache_size0 False;
  m.or_cache <- Itab.create m.cache_size0 False;
  m.xor_cache <- Itab.create m.cache_size0 False;
  m.not_cache <- Itab.create (m.cache_size0 / 4) False;
  m.ite_cache <- Itab2.create (m.cache_size0 / 4) False

let gc m =
  (* the pending gauges predate this collection's [bdd.nodes.live] *)
  flush_obs m;
  (* mark: recursion depth is bounded by the variable count (levels
     strictly increase along lo/hi edges) *)
  let marked = Bytes.make (max 2 m.next_uid) '\000' in
  let rec mark t =
    match t with
    | False | True -> ()
    | Node n ->
        if Bytes.unsafe_get marked n.uid = '\000' then begin
          Bytes.unsafe_set marked n.uid '\001';
          mark n.lo;
          mark n.hi
        end
  in
  Hashtbl.iter (fun _ t -> mark t) m.roots;
  List.iter mark m.temp_roots;
  (* literal nodes are pinned for the manager's lifetime: a bare
     literal held by a caller across operations must never be swept *)
  Array.iter mark m.pos_lits;
  Array.iter mark m.neg_lits;
  (* sweep: rebuild each subtable with only marked nodes (children of a
     marked node are marked, so every rebuilt key is unchanged) and
     recycle the uids of the rest *)
  let before = m.live in
  let n_live = ref 0 in
  Array.iteri
    (fun v tab ->
      let survivors = ref [] in
      let n_here = ref 0 in
      Itab.iter
        (fun key node ->
          match node with
          | Node n ->
              if Bytes.unsafe_get marked n.uid = '\001' then begin
                survivors := (key, node) :: !survivors;
                incr n_here
              end
              else begin
                m.free_uids <- n.uid :: m.free_uids;
                m.n_free <- m.n_free + 1
              end
          | False | True -> ())
        tab;
      let fresh = Itab.create ((!n_here * 4 / 3) + 16) False in
      List.iter (fun (key, node) -> Itab.add fresh key node) !survivors;
      m.subtables.(v) <- fresh;
      n_live := !n_live + !n_here)
    m.subtables;
  m.live <- !n_live;
  (* every op cache may point at swept nodes: invalidate them all *)
  clear_caches m;
  let freed = before - !n_live in
  m.gc_runs <- m.gc_runs + 1;
  m.gc_reclaimed <- m.gc_reclaimed + freed;
  Obs.incr c_gc_runs;
  Obs.add c_gc_reclaimed freed;
  Obs.set g_nodes_live !n_live;
  Obs.event "bdd.gc" ~fields:(fun () ->
      [ ("freed", Simcov_util.Json.Int freed);
        ("live", Simcov_util.Json.Int !n_live) ]);
  freed

(* forward reference: the sifting pass, defined after the node
   constructors it needs *)
let reorder_pass = ref (fun (_ : man) -> false)

(* Run a public operation: pin its BDD arguments, and at the outermost
   nesting level turn [Gc_needed] into collect-and-retry (the retry
   recomputes from the pinned arguments with cold caches, so a sweep
   in the middle of a half-built result is safe). Collection is only
   attempted when the caller opted into resource governance (a node
   limit or registered roots); otherwise the limit is a hard error, as
   an unrooted legacy caller would not survive a sweep. *)
let run_op m args f =
  (* arguments are pinned at every nesting depth, so a public op called
     internally on an unrooted intermediate is protected even when the
     collection fires deeper in the nesting *)
  let saved = m.temp_roots in
  m.temp_roots <- List.rev_append args saved;
  if m.op_depth > 0 then begin
    m.op_depth <- m.op_depth + 1;
    Fun.protect
      ~finally:(fun () ->
        m.temp_roots <- saved;
        m.op_depth <- m.op_depth - 1)
      f
  end
  else begin
    (* auto-reorder fires between public operations, never inside one;
       the arguments just pinned are part of the sift's sweep set.
       Enabling it is an opt-in to the rooting contract above (a sift
       garbage-collects first). *)
    if
      m.auto_reorder && not m.in_reorder
      && m.live >= m.reorder_min
      && float_of_int m.live
         > m.reorder_ratio *. float_of_int m.last_reorder_live
    then ignore (!reorder_pass m);
    m.op_depth <- 1;
    Fun.protect
      ~finally:(fun () ->
        m.temp_roots <- saved;
        m.op_depth <- 0;
        flush_obs m)
      (fun () ->
        let governed = m.max_nodes < uid_limit || Hashtbl.length m.roots > 0 in
        let rec attempt tries =
          try f ()
          with Gc_needed ->
            if not governed then raise (Node_limit (live_nodes m));
            let freed = gc m in
            if freed = 0 || tries = 0 then raise (Node_limit (live_nodes m));
            attempt (tries - 1)
        in
        attempt 2)
  end

let alloc_uid m =
  match m.free_uids with
  | u :: rest ->
      m.free_uids <- rest;
      m.n_free <- m.n_free - 1;
      u
  | [] ->
      if m.next_uid >= uid_limit then raise Gc_needed;
      let u = m.next_uid in
      m.next_uid <- u + 1;
      u

let mk m v lo hi =
  if lo == hi then lo
  else begin
    let tab = m.subtables.(v) in
    let key = pack2 (id lo) (id hi) in
    (* one probe: a miss reports the insertion slot too *)
    let i = Itab.find_slot tab key in
    if i >= 0 then begin
      bump m k_unique_hit;
      Itab.value tab i
    end
    else begin
      if m.live >= m.max_nodes then raise Gc_needed;
      bump m k_unique_miss;
      let n = Node { v; lo; hi; uid = alloc_uid m } in
      Itab.insert_absent tab i key n;
      let live = m.live + 1 in
      m.live <- live;
      if live > m.peak_live then m.peak_live <- live;
      m.win_live <- live;
      if live > m.win_peak then m.win_peak <- live;
      n
    end
  end

(* Literals are created on first use and cached for the manager's
   lifetime; the GC marks the cache, so a literal can never be swept
   out from under a caller holding it across other operations. *)
let var m v =
  if v < 0 || v >= m.nvars then invalid_arg "Bdd.var: variable out of range";
  match m.pos_lits.(v) with
  | False ->
      let n = run_op m [] (fun () -> mk m v False True) in
      m.pos_lits.(v) <- n;
      n
  | n -> n

let nvar m v =
  if v < 0 || v >= m.nvars then invalid_arg "Bdd.nvar: variable out of range";
  match m.neg_lits.(v) with
  | False ->
      let n = run_op m [] (fun () -> mk m v True False) in
      m.neg_lits.(v) <- n;
      n
  | n -> n

let is_true t = t == True
let is_false t = t == False
let equal a b = a == b

let topvar = function
  | Node n -> n.v
  | False | True -> invalid_arg "Bdd.topvar: constant"

let low = function
  | Node n -> n.lo
  | (False | True) as c -> c

let high = function
  | Node n -> n.hi
  | (False | True) as c -> c

let size t =
  let seen = Hashtbl.create 64 in
  let rec go t =
    match t with
    | False | True -> ()
    | Node n ->
        if not (Hashtbl.mem seen n.uid) then begin
          Hashtbl.add seen n.uid ();
          go n.lo;
          go n.hi
        end
  in
  go t;
  Hashtbl.length seen + 2

(* The order position of a node for cofactoring purposes: constants
   sort below every real level. *)
let lvl m = function
  | False | True -> max_int
  | Node n -> Array.unsafe_get m.level_of_var n.v

(* The cofactors of [t] on the split variable [v]: two selectors
   rather than one function returning a pair, which would allocate a
   tuple per call. *)
let lo_on t v =
  match t with
  | Node n when n.v = v -> n.lo
  | False | True | Node _ -> t

let hi_on t v =
  match t with
  | Node n when n.v = v -> n.hi
  | False | True | Node _ -> t

(* The split variable of a binary operation: whichever operand's top
   variable sits higher in the order. *)
let top2 m na_v nb_v =
  if Array.unsafe_get m.level_of_var na_v <= Array.unsafe_get m.level_of_var nb_v
  then na_v
  else nb_v

let rec bnot_rec m t =
  match t with
  | False -> True
  | True -> False
  | Node n -> (
      let i = Itab.find_idx m.not_cache n.uid in
      if i >= 0 then begin
        bump m k_not_hit;
        Itab.value m.not_cache i
      end
      else begin
        bump m k_not_miss;
        let r = mk m n.v (bnot_rec m n.lo) (bnot_rec m n.hi) in
        Itab.add m.not_cache n.uid r;
        r
      end)

let bnot m t = run_op m [ t ] (fun () -> bnot_rec m t)

let rec band_rec m a b =
  match (a, b) with
  | False, _ | _, False -> False
  | True, x | x, True -> x
  | Node na, Node nb ->
      if a == b then a
      else begin
        let key =
          if na.uid <= nb.uid then pack2 na.uid nb.uid else pack2 nb.uid na.uid
        in
        let i = Itab.find_idx m.and_cache key in
        if i >= 0 then begin
          bump m k_and_hit;
          Itab.value m.and_cache i
        end
        else begin
          bump m k_and_miss;
          let v = top2 m na.v nb.v in
          let r =
            mk m v
              (band_rec m (lo_on a v) (lo_on b v))
              (band_rec m (hi_on a v) (hi_on b v))
          in
          Itab.add m.and_cache key r;
          r
        end
      end

let band m a b = run_op m [ a; b ] (fun () -> band_rec m a b)

(* Direct recursive OR with its own cache — the original kernel
   expanded a|b as ~(~a & ~b), paying three negation walks per
   operation. *)
let rec bor_rec m a b =
  match (a, b) with
  | True, _ | _, True -> True
  | False, x | x, False -> x
  | Node na, Node nb ->
      if a == b then a
      else begin
        let key =
          if na.uid <= nb.uid then pack2 na.uid nb.uid else pack2 nb.uid na.uid
        in
        let i = Itab.find_idx m.or_cache key in
        if i >= 0 then begin
          bump m k_or_hit;
          Itab.value m.or_cache i
        end
        else begin
          bump m k_or_miss;
          let v = top2 m na.v nb.v in
          let r =
            mk m v
              (bor_rec m (lo_on a v) (lo_on b v))
              (bor_rec m (hi_on a v) (hi_on b v))
          in
          Itab.add m.or_cache key r;
          r
        end
      end

let bor m a b = run_op m [ a; b ] (fun () -> bor_rec m a b)

let rec bxor_rec m a b =
  match (a, b) with
  | False, x | x, False -> x
  | True, x | x, True -> bnot_rec m x
  | Node na, Node nb ->
      if a == b then False
      else begin
        let key =
          if na.uid <= nb.uid then pack2 na.uid nb.uid else pack2 nb.uid na.uid
        in
        let i = Itab.find_idx m.xor_cache key in
        if i >= 0 then begin
          bump m k_xor_hit;
          Itab.value m.xor_cache i
        end
        else begin
          bump m k_xor_miss;
          let v = top2 m na.v nb.v in
          let r =
            mk m v
              (bxor_rec m (lo_on a v) (lo_on b v))
              (bxor_rec m (hi_on a v) (hi_on b v))
          in
          Itab.add m.xor_cache key r;
          r
        end
      end

let bxor m a b = run_op m [ a; b ] (fun () -> bxor_rec m a b)

(* Compound connectives run as ONE public operation: on a mid-op
   collection the retry restarts the whole body from the pinned
   arguments, so the inner intermediate needs no root of its own. *)
let bimp m a b = run_op m [ a; b ] (fun () -> bor_rec m (bnot_rec m a) b)
let biff m a b = run_op m [ a; b ] (fun () -> bnot_rec m (bxor_rec m a b))

let rec ite_rec m c t e =
  match c with
  | True -> t
  | False -> e
  | Node _ ->
      if t == e then t
      else if is_true t && is_false e then c
      else begin
        let ka = pack2 (id c) (id t) and kb = id e in
        let i = Itab2.find_idx m.ite_cache ka kb in
        if i >= 0 then begin
          bump m k_ite_hit;
          Itab2.value m.ite_cache i
        end
        else begin
          bump m k_ite_miss;
          let l = min (lvl m c) (min (lvl m t) (lvl m e)) in
          let v = m.var_of_level.(l) in
          let r =
            mk m v
              (ite_rec m (lo_on c v) (lo_on t v) (lo_on e v))
              (ite_rec m (hi_on c v) (hi_on t v) (hi_on e v))
          in
          Itab2.add m.ite_cache ka kb r;
          r
        end
      end

let ite m c t e = run_op m [ c; t; e ] (fun () -> ite_rec m c t e)

(* n-ary folds pin the whole operand list up front — the not-yet-folded
   tail must survive any collection triggered while folding the head *)
let conj m ts = run_op m ts (fun () -> List.fold_left (band_rec m) True ts)
let disj m ts = run_op m ts (fun () -> List.fold_left (bor_rec m) False ts)

let cofactor_rec m t v b =
  let lv = m.level_of_var.(v) in
  let rec go t =
    match t with
    | False | True -> t
    | Node n ->
        if Array.unsafe_get m.level_of_var n.v > lv then t
        else if n.v = v then if b then n.hi else n.lo
        else mk m n.v (go n.lo) (go n.hi)
  in
  go t

let cofactor m t v b = run_op m [ t ] (fun () -> cofactor_rec m t v b)

(* A quantified-variable set as a flat bool array, validated against
   the manager's variable range. *)
let var_set m vars =
  let vset = Array.make m.nvars false in
  List.iter
    (fun v ->
      if v < 0 || v >= m.nvars then invalid_arg "Bdd: variable out of range";
      vset.(v) <- true)
    vars;
  vset

(* Quantification: membership probed in a flat bool array; results
   memoized per call keyed by node uid (valid because the var set is
   fixed for the call). *)
let quantify_impl m ~disjunctive vset t =
  let cache = Itab.create 256 False in
  let combine a b = if disjunctive then bor_rec m a b else band_rec m a b in
  let rec go t =
    match t with
    | False | True -> t
    | Node n -> (
        let i = Itab.find_idx cache n.uid in
        if i >= 0 then Itab.value cache i
        else begin
          let r =
            if vset.(n.v) then combine (go n.lo) (go n.hi)
            else mk m n.v (go n.lo) (go n.hi)
          in
          Itab.add cache n.uid r;
          r
        end)
  in
  go t

let quantify m ~disjunctive vars t =
  let vset = var_set m vars in
  run_op m [ t ] (fun () -> quantify_impl m ~disjunctive vset t)

let exists m vars t = quantify m ~disjunctive:true vars t
let forall m vars t = quantify m ~disjunctive:false vars t

(* Fused AND-EXISTS: quantifies while conjoining, pruning as soon as a
   branch reaches True under the quantifier. *)
let and_exists_impl m vset f g =
  let cache = Itab.create 1024 False in
  let rec go f g =
    match (f, g) with
    | False, _ | _, False -> False
    | True, True -> True
    | _ ->
        let fid = id f and gid = id g in
        let key = if fid <= gid then pack2 fid gid else pack2 gid fid in
        let i = Itab.find_idx cache key in
        if i >= 0 then Itab.value cache i
        else begin
          let l = min (lvl m f) (lvl m g) in
          let v = m.var_of_level.(l) in
          let r =
            if vset.(v) then begin
              let lo = go (lo_on f v) (lo_on g v) in
              if is_true lo then True
              else bor_rec m lo (go (hi_on f v) (hi_on g v))
            end
            else mk m v (go (lo_on f v) (lo_on g v)) (go (hi_on f v) (hi_on g v))
          in
          Itab.add cache key r;
          r
        end
  in
  go f g

let and_exists m vars f g =
  let vset = var_set m vars in
  run_op m [ f; g ] (fun () -> and_exists_impl m vset f g)

let support _m t =
  let seen = Hashtbl.create 64 in
  let vars = Hashtbl.create 16 in
  let rec go t =
    match t with
    | False | True -> ()
    | Node n ->
        if not (Hashtbl.mem seen n.uid) then begin
          Hashtbl.add seen n.uid ();
          Hashtbl.replace vars n.v ();
          go n.lo;
          go n.hi
        end
  in
  go t;
  Hashtbl.fold (fun v () acc -> v :: acc) vars [] |> List.sort Int.compare

(* Multi-operand fused AND-EXISTS with early quantification: fold the
   conjuncts left to right, and quantify each variable out with the
   conjunct in which it occurs for the last time — at that point no
   remaining conjunct mentions it, so
     exists V (c0 & c1 & ... & cn)
   = exists V_n (... (exists V_1 ((exists V_0 c0) & c1) ...) & cn)
   where V_i is the set of variables whose last occurrence is c_i.
   Intermediate results never carry variables that are already dead,
   which is the whole point of a partitioned transition relation.
   Conjunct order is the caller's ordering heuristic; correctness does
   not depend on it. *)
let and_exists_list m vars conjuncts =
  match conjuncts with
  | [] -> True
  | [ f ] -> exists m vars f
  | _ ->
      let fs = Array.of_list conjuncts in
      let n = Array.length fs in
      let qset = var_set m vars in
      (* last.(v) = index of the last conjunct whose support contains v *)
      let last = Array.make m.nvars (-1) in
      Array.iteri
        (fun i f -> List.iter (fun v -> last.(v) <- i) (support m f))
        fs;
      let quantify_at = Array.make n [] in
      Array.iteri
        (fun v l -> if qset.(v) && l >= 0 then quantify_at.(l) <- v :: quantify_at.(l))
        last;
      run_op m conjuncts (fun () ->
          let acc = ref True in
          for i = 0 to n - 1 do
            acc :=
              (match quantify_at.(i) with
              | [] -> band_rec m !acc fs.(i)
              | q -> and_exists_impl m (var_set m q) !acc fs.(i))
          done;
          !acc)

(* Variable renaming. The precondition is stated against the ORDER, not
   the variable indices: a substitution that is monotone on indices can
   be non-monotone on levels once the manager has been reordered, and
   the structural rewrite below would then silently build an unreduced
   (wrong) diagram. The dispatcher checks the substitution on the
   support — injectivity is required; level-monotonicity selects the
   fast structural path, anything else falls back to a bottom-up ITE
   composition that is correct for every injective substitution. *)
let rename m subst t =
  match t with
  | False | True -> t
  | Node _ ->
      let sup = support m t in
      let targets =
        List.map
          (fun v ->
            let v' = subst v in
            if v' < 0 || v' >= m.nvars then
              invalid_arg "Bdd.rename: target variable out of range";
            v')
          sup
      in
      let seen = Hashtbl.create 16 in
      List.iter
        (fun v' ->
          if Hashtbl.mem seen v' then
            invalid_arg "Bdd.rename: substitution not injective on support";
          Hashtbl.add seen v' ())
        targets;
      let by_level =
        List.sort
          (fun a b -> compare m.level_of_var.(a) m.level_of_var.(b))
          sup
      in
      let monotone =
        let rec chk prev = function
          | [] -> true
          | v :: rest ->
              let l' = m.level_of_var.(subst v) in
              l' > prev && chk l' rest
        in
        chk (-1) by_level
      in
      if monotone then
        run_op m [ t ] (fun () ->
            let cache = Itab.create 256 False in
            let rec go t =
              match t with
              | False | True -> t
              | Node n -> (
                  let i = Itab.find_idx cache n.uid in
                  if i >= 0 then Itab.value cache i
                  else begin
                    (* level-monotone on the support: children map to
                       strictly deeper levels, so the structural rewrite
                       preserves reducedness *)
                    let r = mk m (subst n.v) (go n.lo) (go n.hi) in
                    Itab.add cache n.uid r;
                    r
                  end)
            in
            go t)
      else
        run_op m [ t ] (fun () ->
            let cache = Itab.create 256 False in
            let rec go t =
              match t with
              | False | True -> t
              | Node n -> (
                  let i = Itab.find_idx cache n.uid in
                  if i >= 0 then Itab.value cache i
                  else begin
                    let lo = go n.lo in
                    let hi = go n.hi in
                    (* injectivity on the support guarantees no capture:
                       the renamed subtrees cannot mention the fresh
                       literal *)
                    let r = ite_rec m (var m (subst n.v)) hi lo in
                    Itab.add cache n.uid r;
                    r
                  end)
            in
            go t)

let restrict_cube m assigns t =
  List.fold_left (fun acc (v, b) -> cofactor m acc v b) t assigns

let any_sat _m t =
  let rec go t acc =
    match t with
    | True -> List.rev acc
    | False -> raise Not_found
    | Node n -> if is_false n.hi then go n.lo ((n.v, false) :: acc) else go n.hi ((n.v, true) :: acc)
  in
  go t []

(* Model counting against the LEVEL structure: the counted space is the
   variables with index < nvars, but the DAG descends in level order,
   so the "free variables skipped between a parent and a child" are
   counted through a per-level prefix sum. Under the identity order
   this reduces to exactly the index arithmetic the kernel always used
   (bit-identical floats). *)
let sat_count m ~nvars t =
  if nvars < 0 then invalid_arg "Bdd.sat_count: negative nvars";
  let nlev = m.nvars in
  (* cnt_upto.(l) = counted variables sitting at levels < l *)
  let cnt_upto = Array.make (nlev + 1) 0 in
  for l = 0 to nlev - 1 do
    cnt_upto.(l + 1) <-
      cnt_upto.(l) + (if m.var_of_level.(l) < nvars then 1 else 0)
  done;
  let in_levels = cnt_upto.(nlev) in
  (* counted indices beyond the manager's variables (callers may count
     over a space wider than the manager) are free everywhere *)
  let extra = nvars - in_levels in
  (* precomputed powers of two replace the Float.pow call that used to
     run on every node and every leaf *)
  let pow2 = Array.init (nvars + 1) (fun i -> Float.ldexp 1.0 i) in
  let cache = Hashtbl.create 256 in
  (* count over the subspace of levels >= froml *)
  let rec go t froml =
    match t with
    | False -> 0.0
    | True -> pow2.(in_levels - cnt_upto.(froml) + extra)
    | Node n ->
        if n.v >= nvars then
          invalid_arg
            (Printf.sprintf "Bdd.sat_count: nvars = %d but support contains variable %d"
               nvars n.v);
        let l = m.level_of_var.(n.v) in
        let below =
          match Hashtbl.find_opt cache n.uid with
          | Some c -> c
          | None ->
              let c = go n.lo (l + 1) +. go n.hi (l + 1) in
              Hashtbl.add cache n.uid c;
              c
        in
        below *. pow2.(cnt_upto.(l) - cnt_upto.(froml))
  in
  go t 0

let eval _m t assign =
  let rec go t =
    match t with
    | True -> true
    | False -> false
    | Node n -> if assign n.v then go n.hi else go n.lo
  in
  go t

let iter_sat m ~vars f t =
  let k = Array.length vars in
  let buf = Array.make k false in
  let rec go i t =
    if i = k then begin
      match t with
      | True -> f buf
      | False -> ()
      | Node _ -> invalid_arg "Bdd.iter_sat: support escapes vars"
    end
    else if not (is_false t) then begin
      let v = vars.(i) in
      (* [t] stays live across the whole low-branch enumeration, which
         runs further cofactor operations: pin it *)
      pinned m t (fun () ->
          buf.(i) <- false;
          go (i + 1) (cofactor m t v false);
          buf.(i) <- true;
          go (i + 1) (cofactor m t v true))
    end
  in
  if not (is_false t) then go 0 t

let pp ppf t = Format.fprintf ppf "<bdd #%d, %d nodes>" (id t) (size t)

(* ------------------------------------------------------------------ *)
(* Dynamic variable reordering (Rudell sifting)                        *)
(*                                                                     *)
(* The primitive is the adjacent-level swap: exchange the variables at *)
(* levels l and l+1 by rewriting, in place, exactly the level-l nodes  *)
(* that depend on both. Everything else keeps its physical identity,   *)
(* which is what lets every held OCaml value (roots, pinned arguments, *)
(* literals) survive a reorder untouched. A sift garbage-collects      *)
(* first — the same sweep-set contract as [gc] — then maintains exact  *)
(* reference counts so dead nodes are unlinked eagerly during swaps.   *)
(* ------------------------------------------------------------------ *)

let grow_refs m uid =
  let len = Array.length m.refs in
  if uid >= len then begin
    let fresh = Array.make (max (uid + 1) (2 * len)) 0 in
    Array.blit m.refs 0 fresh 0 len;
    m.refs <- fresh
  end

let ref_incr m t =
  match t with
  | False | True -> ()
  | Node n ->
      grow_refs m n.uid;
      m.refs.(n.uid) <- m.refs.(n.uid) + 1

(* Decrement with eager cascade: a node whose count reaches zero is
   unlinked from its subtable, its uid recycled, and its children
   released in turn. Only ever called during a sift. *)
let rec ref_decr m t =
  match t with
  | False | True -> ()
  | Node n ->
      let r = m.refs.(n.uid) - 1 in
      m.refs.(n.uid) <- r;
      if r = 0 then begin
        Itab.remove m.subtables.(n.v) (pack2 (id n.lo) (id n.hi));
        m.free_uids <- n.uid :: m.free_uids;
        m.n_free <- m.n_free + 1;
        m.live <- m.live - 1;
        ref_decr m n.lo;
        ref_decr m n.hi
      end

(* Exact counts from parent edges plus every element of the sweep set
   (roots, in-flight pinned arguments, the literal caches). After the
   preceding gc each live node is reachable, hence counted >= 1. *)
let build_refs m =
  m.refs <- Array.make (max 2 m.next_uid) 0;
  Array.iter
    (fun tab ->
      Itab.iter
        (fun _ node ->
          match node with
          | Node n ->
              ref_incr m n.lo;
              ref_incr m n.hi
          | False | True -> ())
        tab)
    m.subtables;
  Hashtbl.iter (fun _ t -> ref_incr m t) m.roots;
  List.iter (ref_incr m) m.temp_roots;
  Array.iter (ref_incr m) m.pos_lits;
  Array.iter (ref_incr m) m.neg_lits

(* Node lookup/creation inside a swap: the caller's capacity pre-check
   has guaranteed both uid and ceiling headroom, so this never raises.
   A fresh node starts at refcount 0 (the caller takes its reference);
   its children gain one reference each. *)
let mk_swap m v lo hi =
  if lo == hi then lo
  else begin
    let tab = m.subtables.(v) in
    let key = pack2 (id lo) (id hi) in
    let i = Itab.find_idx tab key in
    if i >= 0 then Itab.value tab i
    else begin
      let uid =
        match m.free_uids with
        | u :: rest ->
            m.free_uids <- rest;
            m.n_free <- m.n_free - 1;
            u
        | [] ->
            let u = m.next_uid in
            m.next_uid <- u + 1;
            u
      in
      grow_refs m uid;
      m.refs.(uid) <- 0;
      let n = Node { v; lo; hi; uid } in
      Itab.add tab key n;
      m.live <- m.live + 1;
      if m.live > m.peak_live then m.peak_live <- m.live;
      ref_incr m lo;
      ref_incr m hi;
      n
    end
  end

(* Worst case an adjacent swap allocates two fresh nodes per rewritten
   one; [checked] refuses the swap when that could overrun the node
   ceiling or the uid space (rollbacks run unchecked: they only
   recreate nodes the forward swap just freed). *)
let swap_capacity m k =
  m.live + (2 * k) <= m.max_nodes
  && m.n_free + (uid_limit - m.next_uid) >= 2 * k

(* Swap the variables at levels [l] and [l+1]. Returns false (leaving
   the manager untouched) when [checked] and the capacity test fails. *)
let swap_adjacent m ~checked l =
  let x = m.var_of_level.(l) and y = m.var_of_level.(l + 1) in
  let xtab = m.subtables.(x) in
  (* the nodes to rewrite: level-l nodes with a level-(l+1) child. All
     other x-nodes keep their keys (the subtable is per variable, not
     per level) and simply sink one level with x itself. *)
  let interesting = ref [] in
  let k = ref 0 in
  Itab.iter
    (fun key node ->
      match node with
      | Node n ->
          let dep c = match c with Node c -> c.v = y | False | True -> false in
          if dep n.lo || dep n.hi then begin
            interesting := (key, node) :: !interesting;
            incr k
          end
      | False | True -> ())
    xtab;
  if checked && not (swap_capacity m !k) then false
  else begin
    (* unlink up front: the keys change, and lookups for the rewritten
       children must never hit a stale entry *)
    List.iter (fun (key, _) -> Itab.remove xtab key) !interesting;
    List.iter
      (fun (_, node) ->
        match node with
        | Node n ->
            let f0 = n.lo and f1 = n.hi in
            let f00, f01 =
              match f0 with
              | Node c when c.v = y -> (c.lo, c.hi)
              | _ -> (f0, f0)
            and f10, f11 =
              match f1 with
              | Node c when c.v = y -> (c.lo, c.hi)
              | _ -> (f1, f1)
            in
            (* the rewritten node keeps its uid and physical identity:
               it becomes the level-l y-node over two level-(l+1)
               x-cofactors. It cannot reduce away ([f00] != [f01] or
               [f10] != [f11] since some child really tests y). *)
            let nlo = mk_swap m x f00 f10 in
            let nhi = mk_swap m x f01 f11 in
            (* take the new references before dropping the old ones, so
               a shared cofactor can never be cascade-freed in between *)
            ref_incr m nlo;
            ref_incr m nhi;
            ref_decr m f0;
            ref_decr m f1;
            n.v <- y;
            n.lo <- nlo;
            n.hi <- nhi;
            Itab.add m.subtables.(y) (pack2 (id nlo) (id nhi)) node
        | False | True -> ())
      !interesting;
    m.var_of_level.(l) <- y;
    m.var_of_level.(l + 1) <- x;
    m.level_of_var.(x) <- l + 1;
    m.level_of_var.(y) <- l;
    m.reorder_swapped <- m.reorder_swapped + 1;
    Obs.incr c_reorder_swaps;
    true
  end

(* ---- grouped (block) sifting ---- *)

let set_groups m groups =
  let gid = Array.make m.nvars (-1) in
  let arr =
    List.map
      (fun g ->
        if g = [] then invalid_arg "Bdd.set_groups: empty group";
        List.iter
          (fun v ->
            if v < 0 || v >= m.nvars then
              invalid_arg "Bdd.set_groups: variable out of range";
            if gid.(v) >= 0 then
              invalid_arg "Bdd.set_groups: variable in two groups";
            gid.(v) <- 0)
          g;
        let a = Array.of_list g in
        Array.sort
          (fun a b -> compare m.level_of_var.(a) m.level_of_var.(b))
          a;
        let l0 = m.level_of_var.(a.(0)) in
        Array.iteri
          (fun i v ->
            if m.level_of_var.(v) <> l0 + i then
              invalid_arg "Bdd.set_groups: group not level-contiguous")
          a;
        a)
      groups
  in
  m.groups <- Array.of_list arr

(* The sequence of blocks in level order. Groups that are still
   level-contiguous move as one block; a group broken apart (e.g. by an
   explicit [set_order]) degrades to singletons. *)
let block_sequence m =
  let n = m.nvars in
  let gid = Array.make n (-1) in
  Array.iteri (fun g vars -> Array.iter (fun v -> gid.(v) <- g) vars) m.groups;
  let seq = ref [] in
  let l = ref 0 in
  while !l < n do
    let v = m.var_of_level.(!l) in
    let g = gid.(v) in
    let sz = if g >= 0 then Array.length m.groups.(g) else 1 in
    let contiguous =
      g >= 0
      && sz <= n - !l
      && Array.for_all
           (fun v' ->
             let lv = m.level_of_var.(v') in
             lv >= !l && lv < !l + sz)
           m.groups.(g)
    in
    if contiguous then begin
      seq := Array.init sz (fun i -> m.var_of_level.(!l + i)) :: !seq;
      l := !l + sz
    end
    else begin
      seq := [| v |] :: !seq;
      incr l
    end
  done;
  Array.of_list (List.rev !seq)

(* Exchange the adjacent blocks at positions [i] and [i+1] of [seq]: a
   p-block passes a q-block through p*q adjacent swaps (each level of
   the upper block sinks past the lower block, bottom level first). On
   a capacity abort the completed swaps are rolled back — unchecked,
   they only recreate nodes the forward swaps just freed — so group
   contiguity survives the abort. *)
let swap_blocks m seq i =
  let bp = seq.(i) and bq = seq.(i + 1) in
  let p = Array.length bp and q = Array.length bq in
  let l0 = m.level_of_var.(bp.(0)) in
  let done_swaps = ref [] in
  let ok = ref true in
  (try
     for b = p - 1 downto 0 do
       for s = 0 to q - 1 do
         let l = l0 + b + s in
         if swap_adjacent m ~checked:true l then done_swaps := l :: !done_swaps
         else begin
           ok := false;
           raise Exit
         end
       done
     done
   with Exit -> ());
  if !ok then begin
    seq.(i) <- bq;
    seq.(i + 1) <- bp;
    true
  end
  else begin
    (* newest first: the consed list is already in reverse order *)
    List.iter (fun l -> ignore (swap_adjacent m ~checked:false l)) !done_swaps;
    false
  end

let block_node_count m blk =
  Array.fold_left (fun acc v -> acc + Itab.length m.subtables.(v)) 0 blk

(* Sift one block: walk it to the nearer end, then all the way to the
   other end, tracking the total live count at every position; finish
   at the best position seen. Movement in one direction stops early
   once the table grows past [max_growth] times the best — the
   standard Rudell truncation. *)
let sift_block m seq blk aborted =
  let nb = Array.length seq in
  let idx = ref (-1) in
  Array.iteri (fun i b -> if b == blk then idx := i) seq;
  if !idx >= 0 then begin
    let start = !idx in
    let best_live = ref m.live and best_pos = ref start in
    let cur = ref start in
    let max_growth = 1.2 in
    let move dir =
      let keep_going = ref true in
      while !keep_going do
        if (dir > 0 && !cur >= nb - 1) || (dir < 0 && !cur <= 0) then
          keep_going := false
        else begin
          let i = if dir > 0 then !cur else !cur - 1 in
          if not (swap_blocks m seq i) then begin
            aborted := true;
            keep_going := false
          end
          else begin
            cur := !cur + dir;
            if m.live < !best_live then begin
              best_live := m.live;
              best_pos := !cur
            end;
            if float_of_int m.live > max_growth *. float_of_int !best_live
            then keep_going := false
          end
        end
      done
    in
    if start >= nb / 2 then begin
      move 1;
      if not !aborted then move (-1)
    end
    else begin
      move (-1);
      if not !aborted then move 1
    end;
    (* settle at the best position seen *)
    while (not !aborted) && !cur <> !best_pos do
      let down = !best_pos > !cur in
      let i = if down then !cur else !cur - 1 in
      if swap_blocks m seq i then cur := !cur + (if down then 1 else -1)
      else aborted := true
    done
  end

(* One full sifting pass over all blocks, largest first. Returns true
   when a capacity abort cut the pass short (the manager is left at a
   consistent inter-swap point either way). *)
let sift_all m =
  let seq = block_sequence m in
  if Array.length seq <= 1 then false
  else begin
    let order = Array.copy seq in
    Array.sort
      (fun a b -> compare (block_node_count m b) (block_node_count m a))
      order;
    let aborted = ref false in
    Array.iter (fun blk -> if not !aborted then sift_block m seq blk aborted) order;
    !aborted
  end

(* The full reorder: gc to the minimal live set, build exact refcounts,
   sift, then drop the refs and every op cache (cache entries name
   uids that may have been freed and recycled during the pass). *)
let reorder_internal m =
  m.in_reorder <- true;
  Fun.protect
    ~finally:(fun () ->
      m.in_reorder <- false;
      m.refs <- [||];
      clear_caches m)
    (fun () ->
      ignore (gc m);
      let before = m.live in
      build_refs m;
      let swaps0 = m.reorder_swapped in
      let aborted = sift_all m in
      m.reorder_runs <- m.reorder_runs + 1;
      m.last_reorder_live <- max m.live m.reorder_min;
      m.last_before <- before;
      m.last_after <- m.live;
      Obs.incr c_reorder_runs;
      Obs.set g_reorder_before before;
      Obs.set g_reorder_after m.live;
      Obs.set g_nodes_live m.live;
      Obs.event "bdd.reorder" ~fields:(fun () ->
          [ ("nodes_before", Simcov_util.Json.Int before);
            ("nodes_after", Simcov_util.Json.Int m.live);
            ("swaps", Simcov_util.Json.Int (m.reorder_swapped - swaps0));
            ("aborted", Simcov_util.Json.Bool aborted) ]);
      aborted)

let () = reorder_pass := fun m -> reorder_internal m

let reorder m =
  if m.op_depth > 0 then invalid_arg "Bdd.reorder: operation in flight";
  if m.nvars > 1 then begin
    let aborted = reorder_internal m in
    if aborted then raise (Node_limit m.live)
  end

let set_auto_reorder m ?(ratio = 2.0) ?(min_nodes = 4096) on =
  if ratio <= 1.0 then invalid_arg "Bdd.set_auto_reorder: ratio must exceed 1.0";
  if min_nodes < 1 then invalid_arg "Bdd.set_auto_reorder: non-positive min_nodes";
  m.auto_reorder <- on;
  m.reorder_ratio <- ratio;
  m.reorder_min <- min_nodes;
  if on then m.last_reorder_live <- max m.live min_nodes

let set_order m perm =
  if m.op_depth > 0 then invalid_arg "Bdd.set_order: operation in flight";
  if Array.length perm <> m.nvars then
    invalid_arg "Bdd.set_order: not a permutation of the variables";
  let seen = Array.make (max 1 m.nvars) false in
  Array.iter
    (fun v ->
      if v < 0 || v >= m.nvars || seen.(v) then
        invalid_arg "Bdd.set_order: not a permutation of the variables";
      seen.(v) <- true)
    perm;
  if m.nvars > 1 then begin
    m.in_reorder <- true;
    Fun.protect
      ~finally:(fun () ->
        m.in_reorder <- false;
        m.refs <- [||];
        clear_caches m)
      (fun () ->
        ignore (gc m);
        build_refs m;
        (* selection in place: bubble the variable destined for level l
           up from wherever it currently sits *)
        let aborted = ref false in
        for l = 0 to m.nvars - 1 do
          if not !aborted then begin
            let j = m.level_of_var.(perm.(l)) in
            let k = ref (j - 1) in
            while (not !aborted) && !k >= l do
              if swap_adjacent m ~checked:true !k then decr k
              else aborted := true
            done
          end
        done;
        if !aborted then raise (Node_limit m.live))
  end

(* ------------------------------------------------------------------ *)

let to_dot ?(var_name = fun v -> "x" ^ string_of_int v) m t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph bdd {\n";
  Buffer.add_string buf "  node [shape=circle];\n";
  Buffer.add_string buf "  F [shape=box, label=\"0\"];\n";
  Buffer.add_string buf "  T [shape=box, label=\"1\"];\n";
  let seen = Hashtbl.create 64 in
  (* uids per level, in discovery order — the rank groups that keep a
     reordered diagram drawn in order *)
  let per_level = Array.make (max 1 m.nvars) [] in
  let node_ref = function False -> "F" | True -> "T" | Node n -> "n" ^ string_of_int n.uid in
  let rec go t =
    match t with
    | False | True -> ()
    | Node n ->
        if not (Hashtbl.mem seen n.uid) then begin
          Hashtbl.add seen n.uid ();
          let l = m.level_of_var.(n.v) in
          per_level.(l) <- n.uid :: per_level.(l);
          Buffer.add_string buf
            (Printf.sprintf "  n%d [label=\"%s L%d\"];\n" n.uid (var_name n.v) l);
          Buffer.add_string buf
            (Printf.sprintf "  n%d -> %s [style=dashed];\n" n.uid (node_ref n.lo));
          Buffer.add_string buf (Printf.sprintf "  n%d -> %s;\n" n.uid (node_ref n.hi));
          go n.lo;
          go n.hi
        end
  in
  go t;
  (* one rank per populated level, top of the order first *)
  Array.iter
    (fun uids ->
      match uids with
      | [] -> ()
      | _ ->
          Buffer.add_string buf "  { rank=same;";
          List.iter
            (fun uid -> Buffer.add_string buf (Printf.sprintf " n%d;" uid))
            (List.rev uids);
          Buffer.add_string buf " }\n")
    per_level;
  Buffer.add_string buf (Printf.sprintf "  root [shape=none, label=\"\"];\n  root -> %s;\n" (node_ref t));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
