(** Task mappings: the core abstraction of the paper (its §5.1).

    A task mapping assigns an ordered list of tasks (points of an
    [m]-dimensional task domain) to each worker in a worker set
    [W_n = {0, ..., n-1}]:

    {v f : W_n -> task list,   task = (t_0, ..., t_{m-1}), 0 <= t_i < d_i v}

    Two basic mappings exist: [spatial d] assigns each of the [prod d] tasks
    to its own worker, and [repeat d] assigns all [prod d] tasks, in order, to
    a single worker. Mappings over the same number of dimensions compose:
    [compose f1 f2] has [n1 * n2] workers and task shape [d1 ⊙ d2]
    (element-wise product), with

    {v f3(w) = [t1 ⊙ d2 + t2 | t1 in f1(w / n2), t2 in f2(w mod n2)] v}

    Composition is associative (property-tested in [test/test_task_mapping]). *)

type t

(** {1 Constructors} *)

val spatial : int list -> t
(** Row-major: the last dimension varies fastest across consecutive workers. *)

val column_spatial : int list -> t
(** Column-major worker layout (first dimension fastest). *)

val spatial_order : order:int list -> int list -> t
(** [order] is a permutation of dimensions from outermost to innermost. *)

val repeat : int list -> t
(** One worker iterates the grid in row-major order. *)

val column_repeat : int list -> t
val repeat_order : order:int list -> int list -> t

val custom :
  name:string -> shape:int list -> workers:int -> (int -> (int list) list) -> t
(** Arbitrary user mapping. Every worker must receive the same number of
    tasks (checked lazily on first evaluation). *)

(** {1 Composition} *)

val compose : t -> t -> t
(** Raises [Invalid_argument] if dimensions differ. *)

val ( *> ) : t -> t -> t
(** [f1 *> f2] = [compose f1 f2] (left = outer, matching the paper's
    [f1 ∘ f2]). *)

val compose_all : t list -> t

(** {1 Queries} *)

val dims : t -> int
val task_shape : t -> int list
val num_workers : t -> int
val tasks_per_worker : t -> int
val num_tasks : t -> int
(** [num_workers * tasks_per_worker]; equals the domain size iff the mapping
    is a partition. *)

val tasks : t -> int -> (int list) list
(** [tasks f w]: the ordered task list of worker [w].
    Raises [Invalid_argument] if [w] is out of range. *)

val is_partition : t -> bool
(** True iff every point of the task domain is assigned exactly once. Holds
    for any composition of [spatial] / [repeat] atoms. *)

val atoms_description : t -> string
(** e.g. ["spatial(4, 2) * repeat(2, 2) * spatial(4, 8)"]. *)

val pp : Format.formatter -> t -> unit

(**/**)

(** Internal representation, exposed for {!Lower} within this library. *)
type internal_atom =
  | Spatial of { shape : int array; order : int array }
  | Repeat of { shape : int array; order : int array }
  | Custom of {
      name : string;
      shape : int array;
      workers : int;
      f : int -> int list list;
    }

val internal_atoms : t -> internal_atom list
