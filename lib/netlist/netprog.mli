(** Circuits compiled to flat, hash-consed gate programs.

    A {!Circuit.t} stores its logic as expression trees: a subterm
    shared by several next-state functions is repeated in each of
    them (the DLX test model has 4882 tree nodes but only 257
    distinct gates). {!compile} walks those trees once, bottom-up, and
    gives every distinct [(operator, fanin slots)] pair one {e slot}
    of a topologically ordered program, so a simulation step evaluates
    each distinct gate exactly once.

    Slot layout:
    - slots [0 .. n_inputs - 1] hold the primary inputs and the next
      [n_regs] slots the current register values. These {e leaf} slots
      are loaded by the caller before a pass; the evaluators never
      write them;
    - then come the gates of the input constraint, ending at
      {!constraint_end}: a validity check evaluates only that prefix;
    - then the remaining gates of the next-state and output logic.

    The lane evaluators ({!eval_constraint}, {!eval_rest}) work over
    caller-owned scratch arrays of length {!slots}, so one compiled
    program can be shared by every domain of a sharded campaign. Bit
    [l] of every slot is an independent boolean lane. Constants
    broadcast to all lanes; the complement sets bits beyond the lanes
    the caller populated, which the caller masks off. *)

type t

val compile : Circuit.t -> t
(** Time linear in the circuit's tree size; identical subterms are
    merged by their operator and fanin slot ids, never by deep
    structural comparison.
    @raise Invalid_argument if an expression reads an input or
    register the circuit does not declare. *)

val n_inputs : t -> int
val n_regs : t -> int
val n_outputs : t -> int

val initial_state : t -> Circuit.state
(** A fresh copy of the registers' reset values. *)

val slots : t -> int
(** Length of a scratch array: leaves plus distinct gates. *)

val gates : t -> int
(** Distinct gates (constants included, leaves excluded). *)

val reg_slot : t -> int -> int
(** Slot of register [r]'s current value: [n_inputs + r]. Input [i]'s
    slot is [i]. *)

val constraint_end : t -> int
(** Slots [0 .. constraint_end - 1] compute the input constraint. *)

val constraint_slot : t -> int
val next_slot : t -> int -> int
(** Slot of register [r]'s next-state function. *)

val output_slot : t -> int -> int

(** {1 Native-[int] lanes} *)

val eval_constraint : t -> int array -> unit
(** Evaluate the constraint prefix; the leaf slots must be loaded.
    @raise Invalid_argument if the array is shorter than {!slots}. *)

val eval_rest : t -> int array -> unit
(** Evaluate every gate after the constraint prefix; the prefix must
    have been evaluated on the same array. *)

(** {1 Golden simulation}

    One boolean valuation at a time, with {!Circuit.step}'s semantics:
    a [sim] owns its scratch array, so it must not be shared between
    domains. *)

type sim

val sim : t -> sim

val input_valid : sim -> Circuit.state -> bool array -> bool
(** As {!Circuit.input_valid}: only the constraint prefix runs.
    @raise Invalid_argument if [inputs] is shorter than
    {!n_inputs}. *)

val step : sim -> Circuit.state -> bool array -> Circuit.state * bool array
(** As {!Circuit.step}.
    @raise Invalid_argument on an input vector of the wrong width or
    one that violates the constraint, with {!Circuit.step}'s
    messages. *)
