(** FSM-level static analysis: certify Theorem 1's preconditions
    before trusting a transition tour.

    The paper's completeness result (a transition tour detects every
    error in the model's fault class) is conditional on facts about the
    {e machine}: strong connectivity (a closed tour must exist),
    minimality (equivalent states void the state-counting argument),
    ∀k-distinguishability (Definition 5 — the exposure window that
    turns excitation into detection), uniform output errors
    (Definition 2 / Requirement 1) and the absence of masked transfer
    errors (Definition 4 / Requirement 4). Nothing in a coverage
    number says whether those hold; this pass suite checks them
    statically on the explicit Mealy machine and reports findings
    through the shared {!Diag} core under the [SA6xx] block:

    - [well-formed] — SA601 dead-end reachable state, SA602
      unreachable state, SA603 dead input symbol, SA604 out-of-range
      transition target, SA605 partial specification (Info).
      Determinism needs no check: {!Simcov_fsm.Fsm.t} is functional,
      hence deterministic by construction, and
      {!Simcov_fsm.Fsm.of_table} rejects duplicate rows.
    - [connectivity] — SA610 when the reachable transition graph is
      not strongly connected, with the SCC condensation cut edges as
      the witness (shared Tarjan via {!Simcov_graph.Scc}).
    - [minimality] — SA620 per equivalent state pair (partition
      refinement via {!Simcov_fsm.Fsm.minimize}), witnessed by a merge
      word driving both states to a common successor.
    - [distinguishability] — SA630 (Info) with the smallest [k] such
      that every reachable pair is ∀k-distinguishable, or SA631 naming
      an offending pair and a masking word of length [k_bound] on
      which their outputs agree.
    - [fault-structural] — SA640 when a non-uniform
      ({!Simcov_coverage.Fault.Conditional_output}) error escapes the
      transition tour (Requirement 1), SA641 when a transfer error is
      masked on the tour (Requirement 4, {e via}
      {!Simcov_coverage.Detect.masked_windows}); both carry concrete
      fault + word witnesses.
    - [suite-cover] — static prediction of state/transition coverage
      of a word list by graph walk (no fault simulation): SA650 word
      applies an invalid input, SA651 transitions missed by the whole
      suite, SA652 redundant word.

    The suite is budget-aware in the style of {!Lint}: passes that the
    budget cuts off are listed in {!report.skipped}, never silently
    absent. *)

open Simcov_fsm

type stats = {
  n_states : int;
  n_reachable : int;
  n_inputs : int;
  n_transitions : int;  (** reachable valid transitions *)
  n_classes : int;  (** equivalence classes over reachable states *)
  n_sccs : int;  (** SCCs of the reachable transition graph *)
  certified_k : int option;
      (** smallest [k] with every reachable pair ∀k-distinguishable;
          [None] when uncertified (non-minimal, bound exceeded, or the
          pass was skipped) *)
}

type suite_report = {
  n_words : int;
  suite_states : int;  (** states covered by the whole suite *)
  suite_transitions : int;  (** transitions covered by the whole suite *)
  redundant : int list;  (** 0-based indices of words adding no coverage *)
  missed : (int * int) list;  (** reachable (state, input) left uncovered *)
}

type report = {
  name : string;
  stats : stats;
  passes : string list;  (** pass ids run, in order *)
  skipped : string list;  (** pass ids scheduled but cut off by budget *)
  diags : Diag.t list;  (** sorted with {!Diag.compare} *)
  suite : suite_report option;  (** present iff a suite was analyzed *)
  truncated : Simcov_util.Budget.resource option;
}

val run :
  ?budget:Simcov_util.Budget.t ->
  ?name:string ->
  ?k_bound:int ->
  ?seed:int ->
  ?suite:int list list ->
  Fsm.t ->
  report
(** [run m] lints the machine. [k_bound] bounds the ∀k search
    (default 8, matching {!Simcov_core}'s certificate default). [seed]
    feeds the transfer-fault sample of the fault-structural pass when
    the population is too large to enumerate (default 7). [suite] is a
    list of input words to analyze with the suite-cover pass. *)

(** {1 Requirement 1, structurally} *)

type r1 = {
  r1_escaping : int;
      (** non-uniform output errors the word never excites: one per
          (site, graph predecessor) pair of a site with at least two
          predecessors that the word never takes in that order *)
  r1_sites : int;  (** sites with at least one escaping predecessor *)
  r1_example : (int * int * int * (int * int)) option;
      (** the SA640 witness [(state, input, output, (prev_state,
          prev_input))]: the first escaping site in
          {!Simcov_fsm.Fsm.transitions} order and its first escaping
          predecessor, latest transition first; [None] iff
          [r1_escaping = 0] *)
}

val r1_escapes : Fsm.t -> int list -> r1
(** [r1_escapes m word] replays [word] from the reset state (invalid
    inputs are skipped) and counts the conditional-output faults it
    cannot excite — the figures the [fault-structural] pass reports as
    SA640, where [word] is the transition tour padded by the certified
    [k]. Inputs must lie in [0, n_inputs). *)

val count : report -> Diag.severity -> int
val worst : report -> Diag.severity option

val fails : report -> threshold:Diag.severity -> bool
(** Does any diagnostic reach [threshold]? (The [--fail-on] test.) *)

val schema_id : string
(** ["simcov-fsmlint/1"]. *)

val to_json : report -> Simcov_util.Json.t
(** Versioned schema: [schema], [model] stats (including
    [certified_k]), [passes], [skipped], [diagnostics], [suite]
    (object or [null]) and [truncated]. *)

val of_json : Simcov_util.Json.t -> (report, string) result
(** Inverse of {!to_json} (schema round-trip tests). *)

val pp : Format.formatter -> report -> unit
(** Human rendering: header with certification status, one line per
    diagnostic, suite summary, severity tally. *)
