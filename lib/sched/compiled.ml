open Hidet_ir
module Tensor = Hidet_tensor.Tensor

type t = {
  name : string;
  kernels : Kernel.t list;
  ins : Buffer.t list;
  out : Buffer.t;
  temps : Buffer.t list;
}

type backend = [ `Closure | `Native ]

(* The native backend degrades, never fails: one stderr line the first
   time a run falls back, then only the counter, bumped per launch. *)
let fallback_logged = ref false
let m_fallbacks = Hidet_obs.Metrics.counter "sim.native.fallbacks"

let log_fallback reason =
  if not !fallback_logged then begin
    fallback_logged := true;
    Printf.eprintf
      "[hidet] native backend unavailable (%s); falling back to the closure \
       backend\n\
       %!"
      reason
  end

let latency ?(fidelity = `Analytic) device c =
  let estimate =
    match fidelity with
    | `Analytic -> Hidet_gpu.Perf_model.kernel
    | `Cycle -> Hidet_cycle.Fidelity.estimate
  in
  List.fold_left
    (fun acc k ->
      let e = estimate device k in
      if e.Hidet_gpu.Perf_model.feasible then acc +. e.Hidet_gpu.Perf_model.latency
      else infinity)
    0. c.kernels

let feasible device c = latency device c < infinity

let verify c = List.iter Verify.kernel_exn c.kernels

(* Launch handles: each kernel's executable, built on its first launch on a
   backend and reused by every later one, so a launch neither re-verifies
   the kernel, nor rebuilds its closures, nor walks it again for the
   native memo's key. The tables key kernels by physical identity and
   hold them weakly (ephemerons): a handle lives as long as its kernel.
   Plans run on several domains at once ([Hidet_serve.Pool]), so the tables
   sit behind a lock; a build runs outside it, and when two domains race on
   one kernel the first handle stored wins. *)
module Handles = Ephemeron.K1.Make (struct
  type t = Kernel.t

  let equal = ( == )
  let hash (k : Kernel.t) = Hashtbl.hash (k.name, k.grid_dim, k.block_dim)
end)

let handles_lock = Mutex.create ()
let closure_handles : Hidet_gpu.Launch.t Handles.t = Handles.create 64
let native_handles : Hidet_gpu.Launch.t Handles.t = Handles.create 64

let handle table build k =
  match Mutex.protect handles_lock (fun () -> Handles.find_opt table k) with
  | Some h -> h
  | None ->
    let h = build k in
    Mutex.protect handles_lock (fun () ->
        match Handles.find_opt table k with
        | Some first -> first
        | None ->
          Handles.replace table k h;
          h)

let run ?(legacy = false) ?(backend = `Closure) c inputs =
  if List.length inputs <> List.length c.ins then
    invalid_arg (Printf.sprintf "Compiled.run %s: input count mismatch" c.name);
  let want_native = (not legacy) && backend = `Native in
  let use_native =
    want_native
    &&
    match Hidet_gpu.Exec_ocaml.available () with
    | Ok () -> true
    | Error reason ->
      log_fallback reason;
      false
  in
  let bindings =
    List.map2
      (fun (b : Buffer.t) t ->
        if Tensor.numel t <> Buffer.num_elems b then
          invalid_arg
            (Printf.sprintf "Compiled.run %s: %s expects %d elements, got %d"
               c.name b.Buffer.name (Buffer.num_elems b) (Tensor.numel t));
        (b, Array.copy (Tensor.data t)))
      c.ins inputs
  in
  let temp_bindings =
    List.map (fun b -> (b, Array.make (Buffer.num_elems b) 0.)) c.temps
  in
  let out_arr = Array.make (Buffer.num_elems c.out) 0. in
  let all = ((c.out, out_arr) :: bindings) @ temp_bindings in
  List.iter
    (fun (k : Kernel.t) ->
      let kernel_bindings =
        List.map
          (fun (p : Buffer.t) ->
            match List.find_opt (fun (b, _) -> Buffer.equal b p) all with
            | Some binding -> binding
            | None ->
              invalid_arg
                (Printf.sprintf "Compiled.run %s: kernel %s parameter %s unbound"
                   c.name k.Kernel.name p.Buffer.name))
          k.Kernel.params
      in
      if legacy then Hidet_gpu.Interp.run k kernel_bindings
      else
        let launch =
          if use_native then handle native_handles Hidet_gpu.Exec_ocaml.compile k
          else begin
            if want_native then Hidet_obs.Metrics.incr m_fallbacks;
            handle closure_handles Hidet_gpu.Compile_exec.compile k
          end
        in
        Hidet_gpu.Launch.run_compiled launch kernel_bindings)
    c.kernels;
  Tensor.of_array c.out.Buffer.dims out_arr

let cuda_source c = Cuda_codegen.program c.kernels
