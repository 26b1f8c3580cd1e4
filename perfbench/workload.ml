(* What the runner needs from a workload. A workload builds its inputs
   from the seed in [setup], then runs operation [i] of a fixed round of
   [length t] operations; each operation times only itself and checks
   its own output afterwards. *)

module type S = sig
  type t

  val name : string

  val tail : float
  (** The percentile [latency_tail_ms] reports. *)

  val warmup : bool
  (** Run one untimed round first, so every timed round starts from the
      same cache state. *)

  val quiesce : bool
  (** Compact the heap before each operation, outside its timing: each
      heavy, batch-like operation then starts from the same heap state
      and pays only for the collection its own allocation causes. *)

  val setup : seed:int -> t
  val length : t -> int
  val op : t -> int -> Measure.outcome

  val begin_phase : t -> unit
  (** Called as each timed phase starts. *)

  val layers : t -> Layer.t -> untraced:Measure.phase -> unit
  (** The per-layer probes, run after the timed phases. *)
end
