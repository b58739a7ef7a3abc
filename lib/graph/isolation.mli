(** Node isolation (Eclipse success) detection.

    A correct node is {e isolated} when its view contains no correct
    identifier — every slot is either empty or holds a Byzantine
    identifier (§3.3.1).  An isolated node is fully at the mercy of the
    adversary.  Figure 5's success criterion is that no correct node is
    ever isolated during the second half of a run. *)

val is_isolated :
  is_malicious:(Basalt_proto.Node_id.t -> bool) ->
  Basalt_proto.Node_id.t array ->
  bool
(** [is_isolated ~is_malicious view] is [true] when [view] has no correct
    entry (an empty view is isolated). *)
