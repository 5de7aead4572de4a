(* Hardware-centric vs input-centric tuning on one convolution (the paper's
   sections 3.3 and 4.3 in miniature):

   - the input-centric (AutoTVM-style) space size depends on the divisor
     structure of the layer's extents and explodes to millions of points;
   - the hardware-centric space has ~450 points regardless of input size,
     enumerates exhaustively, and still finds a faster schedule because it
     can pick non-divisor tiles and pipelined (double-buffered) kernels.

   Run with: dune exec examples/tuning.exe *)

module IC = Hidet_baselines.Input_centric
module LS = Hidet_baselines.Loop_sched
module MT = Hidet_sched.Matmul_template
module Tu = Hidet_sched.Tuner
module Space = Hidet_sched.Space

let dev = Hidet_gpu.Device.rtx3090

let () =
  (* The Fig. 15 conv: 28x28 input, 256 channels, k3, stride 2, pad 1. *)
  let x_shape = [ 1; 256; 28; 28 ] and w_shape = [ 256; 256; 3; 3 ] in
  let stride = 2 and pad = 1 in
  let m = 256 and n = 196 and k = 2304 in

  Printf.printf "convolution: input %s, weight %s, stride %d\n"
    (String.concat "x" (List.map string_of_int x_shape))
    (String.concat "x" (List.map string_of_int w_shape))
    stride;
  Printf.printf "as implicit GEMM: m=%d n=%d k=%d\n\n" m n k;

  let ic_size = IC.conv_space_size ~x_shape ~w_shape ~stride ~pad_h:pad ~pad_w:pad in
  let hc_space = Space.matmul_with_split_k ~m ~n in
  Printf.printf "input-centric space:    %.3g schedules\n" ic_size;
  Printf.printf "hardware-centric space: %d schedules (%.0fx smaller)\n\n"
    (List.length hc_space)
    (ic_size /. float_of_int (List.length hc_space));

  let t0 = Unix.gettimeofday () in
  (match
     Tu.tune ~device:dev ~candidates:(Array.of_list hc_space)
       ~compile:(fun cfg -> MT.compile ~a_batched:false ~b_batched:true ~m ~n ~k cfg)
       ()
   with
  | Some (cfg, _, st) ->
    Printf.printf
      "hidet (exhaustive): best %s at %.1f us\n\
      \  %d measured + %d rejected, %.0f simulated tuning seconds,\n\
      \  %.3f s wall here on %d domain(s)\n"
      (MT.config_to_string cfg)
      (st.Tu.best_latency *. 1e6)
      st.Tu.trials st.Tu.rejected st.Tu.simulated_seconds
      (Unix.gettimeofday () -. t0)
      st.Tu.workers
  | None -> print_endline "hidet: no feasible schedule");

  List.iter
    (fun (name, strategy, trials) ->
      let t0 = Unix.gettimeofday () in
      match
        IC.tune_gemm ~strategy ~trials ~device:dev ~seed:42 ~m ~n ~k
          ~compile:(fun s ->
            LS.conv2d ~x_shape ~w_shape ~stride ~pad_h:pad ~pad_w:pad s)
          ()
      with
      | Some t ->
        Printf.printf
          "%s: best %.1f us\n\
          \  %d trials, %.0f simulated tuning seconds, %.3f s wall here\n"
          name (t.IC.latency *. 1e6) t.IC.trials t.IC.simulated_seconds
          (Unix.gettimeofday () -. t0)
      | None -> Printf.printf "%s: no valid schedule found\n" name)
    [
      ("autotvm (random, 1000)", IC.Random_search, 1000);
      ("ansor (evolutionary, 800)", IC.Evolutionary, 800);
    ]
