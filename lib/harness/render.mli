(** Plain-text rendering for experiment output: aligned tables and
    horizontal bar charts (the "figures"). *)

(** [table ~header rows] renders aligned columns. *)
val table : header:string list -> string list list -> string

(** [bars ~title series] renders grouped horizontal bars; [series] is
    [(label, [(series_name, value)])]. Values are scaled to a common
    width. *)
val bars : ?unit_label:string -> title:string -> (string * (string * float) list) list -> string

val pct : float -> string
val f3 : float -> string
