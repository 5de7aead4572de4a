type link = {
  latency : float;
  bandwidth : float;
}

type t = {
  name : string;
  devices : Device.t array;
  link : link;
}

(* NVLink 3.0-class numbers: ~1.5 us software+hop latency per message,
   300 GB/s per direction (NVSwitch all-to-all makes every pair one hop). *)
let nvlink = { latency = 1.5e-6; bandwidth = 300.0e9 }

let of_devices ?name ?(link = nvlink) devices =
  if devices = [] then invalid_arg "Cluster.of_devices: empty device list";
  let devices = Array.of_list devices in
  let name =
    match name with
    | Some n -> n
    | None ->
      Printf.sprintf "%dx%s" (Array.length devices)
        devices.(0).Device.name
  in
  { name; devices; link }

let homogeneous ?name ?link ~n device =
  if n < 1 then invalid_arg "Cluster.homogeneous: need at least one device";
  of_devices ?name ?link (List.init n (fun _ -> device))

let size c = Array.length c.devices

let device c i =
  if i < 0 || i >= size c then
    invalid_arg (Printf.sprintf "Cluster.device: no device %d" i);
  c.devices.(i)

let p2p_time c ~bytes =
  if size c <= 1 then 0.
  else c.link.latency +. (bytes /. c.link.bandwidth)

(* Ring all-reduce: a reduce-scatter pass then an all-gather pass, each of
   [n - 1] steps moving [bytes / n] per step (the classic 2(n-1)/n bytes on
   the wire; NCCL's ring algorithm). *)
let all_reduce_time c ~bytes =
  let n = float_of_int (size c) in
  if size c <= 1 then 0.
  else
    (2. *. (n -. 1.) *. c.link.latency)
    +. (2. *. (n -. 1.) /. n *. bytes /. c.link.bandwidth)

let all_gather_time c ~bytes =
  let n = float_of_int (size c) in
  if size c <= 1 then 0.
  else
    ((n -. 1.) *. c.link.latency)
    +. ((n -. 1.) /. n *. bytes /. c.link.bandwidth)
