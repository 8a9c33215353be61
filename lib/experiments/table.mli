(** ASCII rendering of experiment results.

    The paper's evaluation consists of loss-rate surfaces over two
    parameters and loss-rate series over one; these printers render them
    as aligned tables so the bench harness regenerates every figure as
    rows on stdout. *)

type surface = {
  title : string;
  xlabel : string;  (** Column parameter. *)
  ylabel : string;  (** Row parameter. *)
  zlabel : string;  (** Cell quantity (loss rate). *)
  xs : float array;
  ys : float array;
  cells : float array array;  (** [cells.(row).(col)]. *)
}

val heading : Format.formatter -> string -> unit
(** Underlined section heading. *)

val axis_value : float -> string
(** Compact rendering of an axis value ("inf" for infinity). *)

val cell_value : float -> string
(** Loss-rate rendering: scientific with 3 significant digits, "0" for
    exact zero. *)

val print_surface : Format.formatter -> surface -> unit

val print_multi_series :
  Format.formatter ->
  title:string ->
  xlabel:string ->
  ylabel:string ->
  xs:float array ->
  (string * float array) list ->
  unit
(** Several aligned series sharing the same abscissae, one column each. *)
